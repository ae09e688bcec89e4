//! Error detection mechanisms (EDMs) of the target CPU.
//!
//! The analysis phase of GOOFI classifies "errors that are detected by the
//! error detection mechanisms of the target system … further classified into
//! errors detected by each of the various mechanisms" (paper §3.4). The
//! [`Detection`] enum is that per-mechanism classification; [`EdmSet`] is the
//! PSW-style mask that enables/disables individual mechanisms, so campaigns
//! can measure the contribution of each one (the ablation experiments).

use scanchain::Detection as _;
use std::fmt;

/// An error detected by one of the CPU's mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Detection {
    /// Parity error in the instruction cache.
    ParityI,
    /// Parity error in the data cache.
    ParityD,
    /// Unassigned opcode reached the decoder.
    IllegalOpcode,
    /// Out-of-range access or store into the protected code segment.
    AccessViolation,
    /// Branch/call/fetch target outside the code segment.
    ControlFlow,
    /// Signed arithmetic overflow.
    Overflow,
    /// Integer division by zero.
    DivideByZero,
    /// Software trap: an executable assertion in the workload fired with
    /// this assertion id.
    Assertion(u16),
}

impl scanchain::Detection for Detection {
    fn mechanism(&self) -> &'static str {
        match self {
            Detection::ParityI => "parity_icache",
            Detection::ParityD => "parity_dcache",
            Detection::IllegalOpcode => "illegal_opcode",
            Detection::AccessViolation => "access_violation",
            Detection::ControlFlow => "control_flow",
            Detection::Overflow => "overflow",
            Detection::DivideByZero => "divide_by_zero",
            Detection::Assertion(_) => "assertion",
        }
    }

    fn encode(&self) -> u32 {
        match self {
            Detection::ParityI => 1,
            Detection::ParityD => 2,
            Detection::IllegalOpcode => 3,
            Detection::AccessViolation => 4,
            Detection::ControlFlow => 5,
            Detection::Overflow => 6,
            Detection::DivideByZero => 7,
            Detection::Assertion(id) => 8 | ((*id as u32) << 8),
        }
    }
}

impl Detection {
    /// Whether this is a hardware mechanism (as opposed to a software
    /// assertion embedded in the workload).
    pub fn is_hardware(&self) -> bool {
        !matches!(self, Detection::Assertion(_))
    }

    /// Decodes a status-register value; 0 means "no detection".
    pub fn decode(code: u32) -> Option<Detection> {
        match code & 0xFF {
            1 => Some(Detection::ParityI),
            2 => Some(Detection::ParityD),
            3 => Some(Detection::IllegalOpcode),
            4 => Some(Detection::AccessViolation),
            5 => Some(Detection::ControlFlow),
            6 => Some(Detection::Overflow),
            7 => Some(Detection::DivideByZero),
            8 => Some(Detection::Assertion((code >> 8) as u16)),
            _ => None,
        }
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detection::Assertion(id) => write!(f, "assertion({id})"),
            other => f.write_str(other.mechanism()),
        }
    }
}

/// Enable mask for the individual mechanisms (the CPU's PSW EDM field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdmSet {
    /// Instruction-cache parity checking.
    pub parity_i: bool,
    /// Data-cache parity checking.
    pub parity_d: bool,
    /// Illegal-opcode detection (disabled: illegal words execute as NOP).
    pub illegal_opcode: bool,
    /// Memory access violation detection (disabled: reads return 0, writes
    /// are dropped).
    pub access_violation: bool,
    /// Control-flow checking of branch/call/fetch targets.
    pub control_flow: bool,
    /// Signed-overflow trap (disabled: wrapping arithmetic).
    pub overflow: bool,
}

impl Default for EdmSet {
    /// All mechanisms enabled — the Thor RD production configuration.
    fn default() -> Self {
        EdmSet::all_on()
    }
}

impl EdmSet {
    /// Every mechanism enabled.
    pub fn all_on() -> Self {
        EdmSet {
            parity_i: true,
            parity_d: true,
            illegal_opcode: true,
            access_violation: true,
            control_flow: true,
            overflow: true,
        }
    }

    /// Every mechanism disabled (bare CPU; assertions still fire).
    pub fn all_off() -> Self {
        EdmSet {
            parity_i: false,
            parity_d: false,
            illegal_opcode: false,
            access_violation: false,
            control_flow: false,
            overflow: false,
        }
    }

    /// Whether a given detection is enabled under this mask.
    pub fn allows(&self, d: Detection) -> bool {
        match d {
            Detection::ParityI => self.parity_i,
            Detection::ParityD => self.parity_d,
            Detection::IllegalOpcode => self.illegal_opcode,
            Detection::AccessViolation => self.access_violation,
            Detection::ControlFlow => self.control_flow,
            Detection::Overflow => self.overflow,
            // Divide-by-zero and assertions cannot be masked.
            Detection::DivideByZero | Detection::Assertion(_) => true,
        }
    }

    /// Packs the mask into the low bits of a PSW word.
    pub fn to_bits(self) -> u8 {
        (self.parity_i as u8)
            | (self.parity_d as u8) << 1
            | (self.illegal_opcode as u8) << 2
            | (self.access_violation as u8) << 3
            | (self.control_flow as u8) << 4
            | (self.overflow as u8) << 5
    }

    /// Unpacks a PSW word.
    pub fn from_bits(bits: u8) -> Self {
        EdmSet {
            parity_i: bits & 1 != 0,
            parity_d: bits & 2 != 0,
            illegal_opcode: bits & 4 != 0,
            access_violation: bits & 8 != 0,
            control_flow: bits & 16 != 0,
            overflow: bits & 32 != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for d in [
            Detection::ParityI,
            Detection::ParityD,
            Detection::IllegalOpcode,
            Detection::AccessViolation,
            Detection::ControlFlow,
            Detection::Overflow,
            Detection::DivideByZero,
            Detection::Assertion(0),
            Detection::Assertion(513),
        ] {
            assert_eq!(Detection::decode(d.encode()), Some(d), "{d:?}");
        }
        assert_eq!(Detection::decode(0), None);
    }

    #[test]
    fn mechanism_names_are_stable() {
        assert_eq!(Detection::ParityI.mechanism(), "parity_icache");
        assert_eq!(Detection::Assertion(7).mechanism(), "assertion");
        assert_eq!(Detection::Assertion(7).to_string(), "assertion(7)");
    }

    #[test]
    fn hardware_vs_software() {
        assert!(Detection::ParityD.is_hardware());
        assert!(!Detection::Assertion(1).is_hardware());
    }

    #[test]
    fn edm_bits_roundtrip() {
        for bits in 0..64u8 {
            assert_eq!(EdmSet::from_bits(bits).to_bits(), bits);
        }
    }

    #[test]
    fn default_allows_everything() {
        let s = EdmSet::default();
        for d in [
            Detection::ParityI,
            Detection::AccessViolation,
            Detection::Overflow,
        ] {
            assert!(s.allows(d));
        }
    }

    #[test]
    fn all_off_still_allows_unmaskables() {
        let s = EdmSet::all_off();
        assert!(!s.allows(Detection::ParityI));
        assert!(!s.allows(Detection::Overflow));
        assert!(s.allows(Detection::DivideByZero));
        assert!(s.allows(Detection::Assertion(3)));
    }
}
