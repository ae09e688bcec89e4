//! Scan-chain exposure of the RV32I state ([`scanchain::ScanTarget`] impl).
//!
//! The second target deliberately has a *different* chain geometry from
//! Thor — fewer chains, no caches, a hardwired-zero register — so that any
//! framework code that accidentally bakes in Thor's layout fails loudly in
//! the conformance suite. Three chains are exposed:
//!
//! | chain      | contents                                             |
//! |------------|------------------------------------------------------|
//! | `internal` | PC, X0 (read-only), X1–X31, DETECT/ITER/HALTED (RO)  |
//! | `boundary` | input ports (writable) and output ports/pins (RO)    |
//! | `debug`    | debug-unit condition slots (+ RO hit/counters)       |
//!
//! `X0` is scannable but read-only: in the silicon it is not a latch at
//! all, so there is nothing to flip — the fault-space generator must see
//! it as observe-only, and a verified write through it must be rejected.
//! Main memory is not scannable (pre-runtime SWIFI reaches it instead).

use crate::cpu::{Cpu, PORT_COUNT};
use crate::isa::Reg;
use scanchain::{BitVec, CellAccess, ChainLayout, DebugUnit, ScanError, ScanTarget};

/// Name of the internal (register file) chain.
pub const INTERNAL: &str = "internal";
/// Name of the boundary (pin) chain.
pub const BOUNDARY: &str = "boundary";
/// Name of the debug-unit chain.
pub const DEBUG: &str = "debug";

/// The three chain layouts of an RV32I core.
#[derive(Debug, Clone)]
pub struct ChainSet {
    internal: ChainLayout,
    boundary: ChainLayout,
    debug: ChainLayout,
}

impl Default for ChainSet {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainSet {
    /// Builds the chain layouts (fixed geometry: no caches to size).
    pub fn new() -> Self {
        let internal = {
            let mut b = ChainLayout::builder(INTERNAL)
                .cell("PC", 32, CellAccess::ReadWrite)
                .cell("X0", 32, CellAccess::ReadOnly);
            for i in 1..Reg::COUNT {
                b = b.cell(format!("X{i}"), 32, CellAccess::ReadWrite);
            }
            b.cell("DETECT", 32, CellAccess::ReadOnly)
                .cell("ITER", 32, CellAccess::ReadOnly)
                .cell("HALTED", 1, CellAccess::ReadOnly)
                .build()
        };
        let boundary = {
            let mut b = ChainLayout::builder(BOUNDARY);
            for i in 0..PORT_COUNT {
                b = b.cell(format!("IN_PORT{i}"), 32, CellAccess::ReadWrite);
            }
            for i in 0..PORT_COUNT {
                b = b.cell(format!("OUT_PORT{i}"), 32, CellAccess::ReadOnly);
            }
            b.cell("ERROR_PIN", 1, CellAccess::ReadOnly)
                .cell("HALT_PIN", 1, CellAccess::ReadOnly)
                .build()
        };
        ChainSet {
            internal,
            boundary,
            debug: DebugUnit::chain_layout(),
        }
    }

    /// All chain names in SCAN_N index order.
    pub fn names() -> [&'static str; 3] {
        [INTERNAL, BOUNDARY, DEBUG]
    }

    /// Layout by chain name.
    pub fn by_name(&self, name: &str) -> Option<&ChainLayout> {
        match name {
            INTERNAL => Some(&self.internal),
            BOUNDARY => Some(&self.boundary),
            DEBUG => Some(&self.debug),
            _ => None,
        }
    }
}

impl Cpu {
    /// The CPU's scan-chain layouts.
    pub fn chains(&self) -> &ChainSet {
        &self.chains
    }

    fn capture_internal(&self) -> Result<BitVec, ScanError> {
        let l = &self.chains.internal;
        let mut bits = BitVec::zeros(l.total_bits());
        l.write_cell(&mut bits, "PC", self.pc as u64)?;
        for i in 0..Reg::COUNT {
            l.write_cell(&mut bits, &format!("X{i}"), self.regs[i] as u64)?;
        }
        l.write_cell(
            &mut bits,
            "DETECT",
            self.detection.map_or(0, |d| d.encode()) as u64,
        )?;
        l.write_cell(&mut bits, "ITER", self.iterations & 0xFFFF_FFFF)?;
        l.write_cell(&mut bits, "HALTED", self.halted as u64)?;
        Ok(bits)
    }

    fn update_internal(&mut self, bits: &BitVec) -> Result<(), ScanError> {
        let l = self.chains.internal.clone();
        self.pc = l.read_cell(bits, "PC")? as u32;
        // X0 is not a latch: skipped. DETECT/ITER/HALTED are read-only.
        for i in 1..Reg::COUNT {
            self.regs[i] = l.read_cell(bits, &format!("X{i}"))? as u32;
        }
        Ok(())
    }

    fn capture_boundary(&self) -> Result<BitVec, ScanError> {
        let l = &self.chains.boundary;
        let mut bits = BitVec::zeros(l.total_bits());
        for i in 0..PORT_COUNT {
            l.write_cell(&mut bits, &format!("IN_PORT{i}"), self.in_ports[i] as u64)?;
            l.write_cell(&mut bits, &format!("OUT_PORT{i}"), self.out_ports[i] as u64)?;
        }
        l.write_cell(&mut bits, "ERROR_PIN", self.detection.is_some() as u64)?;
        l.write_cell(&mut bits, "HALT_PIN", self.halted as u64)?;
        Ok(bits)
    }

    fn update_boundary(&mut self, bits: &BitVec) -> Result<(), ScanError> {
        let l = self.chains.boundary.clone();
        for i in 0..PORT_COUNT {
            self.in_ports[i] = l.read_cell(bits, &format!("IN_PORT{i}"))? as u32;
        }
        Ok(())
    }
}

impl ScanTarget for Cpu {
    fn chain_names(&self) -> Vec<String> {
        ChainSet::names().iter().map(|s| s.to_string()).collect()
    }

    fn chain_layout(&self, chain: &str) -> Option<&ChainLayout> {
        self.chains.by_name(chain)
    }

    fn capture_chain(&self, chain: &str) -> Result<BitVec, ScanError> {
        match chain {
            INTERNAL => self.capture_internal(),
            BOUNDARY => self.capture_boundary(),
            DEBUG => self.debug.capture(),
            _ => Err(ScanError::UnknownChain(chain.to_string())),
        }
    }

    fn update_chain(&mut self, chain: &str, bits: &BitVec) -> Result<(), ScanError> {
        let layout = self
            .chains
            .by_name(chain)
            .ok_or_else(|| ScanError::UnknownChain(chain.to_string()))?;
        if bits.len() != layout.total_bits() {
            return Err(ScanError::LengthMismatch {
                expected: layout.total_bits(),
                got: bits.len(),
            });
        }
        match chain {
            INTERNAL => self.update_internal(bits),
            BOUNDARY => self.update_boundary(bits),
            DEBUG => self.debug.update(bits),
            _ => Err(ScanError::UnknownChain(chain.to_string())),
        }
    }
}

#[cfg(test)]
mod rv32i_tests {
    use super::*;
    use crate::cpu::{CpuConfig, Detection, Image, StopReason, ECALL_ASSERT, ECALL_HALT};
    use crate::isa::{encode, AluImmOp, Instr};
    use scanchain::TestCard;

    fn addi(rd: u8, rs1: u8, imm: i32) -> u32 {
        encode(Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::new(rd),
            rs1: Reg::new(rs1),
            imm,
        })
    }

    fn halting(mut words: Vec<u32>) -> Vec<u32> {
        words.push(addi(17, 0, ECALL_HALT as i32));
        words.push(encode(Instr::Ecall));
        words
    }

    fn cpu_with(words: Vec<u32>) -> Cpu {
        let code_words = words.len() as u32;
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&Image {
            words,
            code_words,
            entry: 0,
        })
        .unwrap();
        cpu
    }

    #[test]
    fn chain_names_and_layouts_exist() {
        let cpu = Cpu::new(CpuConfig::default());
        for name in ChainSet::names() {
            assert!(cpu.chain_layout(name).is_some(), "{name}");
            let img = cpu.capture_chain(name).unwrap();
            assert_eq!(img.len(), cpu.chain_layout(name).unwrap().total_bits());
        }
        assert!(cpu.chain_layout("icache").is_none());
    }

    #[test]
    fn register_visible_and_writable_via_scan() {
        let mut cpu = cpu_with(halting(vec![addi(3, 0, 77)]));
        cpu.run(10);
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        assert_eq!(card.read_cell(INTERNAL, "X3").unwrap(), 77);
        card.write_cell(INTERNAL, "X5", 0xFEED).unwrap();
        assert_eq!(card.target().reg(Reg::new(5)), 0xFEED);
    }

    #[test]
    fn x0_cell_is_read_only_and_always_zero() {
        let cpu = cpu_with(halting(vec![]));
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        assert_eq!(card.read_cell(INTERNAL, "X0").unwrap(), 0);
        assert!(card.write_cell(INTERNAL, "X0", 1).is_err());
    }

    #[test]
    fn detect_cell_is_read_only_and_reflects_detection() {
        let mut cpu = cpu_with(vec![
            addi(10, 0, 3),
            addi(17, 0, ECALL_ASSERT as i32),
            encode(Instr::Ecall),
        ]);
        cpu.run(10);
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        let code = card.read_cell(INTERNAL, "DETECT").unwrap() as u32;
        assert_eq!(Detection::decode(code), Some(Detection::Assertion(3)));
        assert!(card.write_cell(INTERNAL, "DETECT", 0).is_err());
    }

    #[test]
    fn boundary_chain_reads_outputs_and_writes_inputs() {
        // a0 = 1 (port); ecall IN; a1 = a0; a0 = 0; ecall OUT; halt.
        let mut cpu = cpu_with(halting(vec![
            addi(10, 0, 1),
            addi(17, 0, crate::cpu::ECALL_IN as i32),
            encode(Instr::Ecall),
            addi(11, 10, 0),
            addi(10, 0, 0),
            addi(17, 0, crate::cpu::ECALL_OUT as i32),
            encode(Instr::Ecall),
        ]));
        cpu.set_in_port(1, 99);
        cpu.run(20);
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        assert_eq!(card.read_cell(BOUNDARY, "OUT_PORT0").unwrap(), 99);
        assert_eq!(card.read_cell(BOUNDARY, "HALT_PIN").unwrap(), 1);
        card.write_cell(BOUNDARY, "IN_PORT2", 7).unwrap();
        assert!(card.write_cell(BOUNDARY, "OUT_PORT0", 0).is_err());
    }

    #[test]
    fn debug_chain_programs_breakpoints() {
        use scanchain::DebugCondition;
        let cpu = cpu_with(halting(vec![addi(1, 0, 1), addi(2, 0, 2)]));
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        let layout = DebugUnit::chain_layout();
        let mut bits = card.read_chain(DEBUG).unwrap();
        layout.write_cell(&mut bits, "COND0.KIND", 1).unwrap(); // PcEquals
        layout.write_cell(&mut bits, "COND0.OPERAND", 4).unwrap(); // byte PC
        card.write_chain(DEBUG, &bits).unwrap();
        let mut cpu = card.into_target();
        match cpu.run(100) {
            StopReason::DebugEvent(ev) => {
                assert_eq!(ev.condition, DebugCondition::PcEquals(4));
            }
            other => panic!("expected breakpoint, got {other:?}"),
        }
    }

    #[test]
    fn pc_flip_via_scan_causes_control_flow_error() {
        let mut cpu = cpu_with(halting(vec![addi(1, 0, 1), addi(2, 0, 2)]));
        cpu.step();
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        // Set PC far outside the 4-word code segment.
        card.write_cell(INTERNAL, "PC", 0x4000).unwrap();
        let mut cpu = card.into_target();
        assert_eq!(cpu.run(100), StopReason::Detected(Detection::ControlFlow));
    }

    #[test]
    fn full_chain_write_roundtrip_preserves_state() {
        let mut cpu = cpu_with(halting(vec![addi(1, 0, 5), addi(2, 0, 6)]));
        cpu.step();
        let (before_regs, before_pc) = (cpu.regs, cpu.pc());
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        let bits = card.read_chain(INTERNAL).unwrap();
        card.write_chain(INTERNAL, &bits).unwrap();
        assert_eq!(card.target().regs, before_regs);
        assert_eq!(card.target().pc(), before_pc);
    }
}
