//! Scan-chain exposure of the CPU state ([`scanchain::ScanTarget`] impl).
//!
//! Mirrors the Thor RD's test logic: the scan chains give access to "almost
//! all of the state elements" of the processor (paper §1), with some
//! locations read-only ("can therefore only be used to observe the state of
//! the microprocessor", §3.1). Five chains are exposed:
//!
//! | chain      | contents                                             |
//! |------------|------------------------------------------------------|
//! | `internal` | PC, FLAGS, IR, MAR, MDR, R0–R15, PSW (+ RO status)   |
//! | `icache`   | valid/tag/data/parity bits of every I-cache line     |
//! | `dcache`   | valid/tag/data/parity bits of every D-cache line     |
//! | `boundary` | input pins (writable) and output pins (observe-only) |
//! | `debug`    | debug-unit condition slots (+ RO hit/counters)       |
//!
//! Main memory is deliberately *not* scannable — exactly like the real
//! target, where memory faults are the domain of pre-runtime SWIFI while
//! SCIFI reaches the microarchitectural state (the basis of experiment E2).

use crate::cache::Line;
use crate::cpu::{Cpu, PORT_COUNT};
use crate::edm::EdmSet;
use crate::isa::Reg;
use scanchain::{BitVec, CellAccess, ChainLayout, DebugUnit, ScanError, ScanTarget};

/// Name of the internal (register/latch) chain.
pub const INTERNAL: &str = "internal";
/// Name of the instruction-cache chain.
pub const ICACHE: &str = "icache";
/// Name of the data-cache chain.
pub const DCACHE: &str = "dcache";
/// Name of the boundary (pin) chain.
pub const BOUNDARY: &str = "boundary";
/// Name of the debug-unit chain.
pub const DEBUG: &str = "debug";

/// The five chain layouts of a CPU instance (geometry-dependent).
#[derive(Debug, Clone)]
pub struct ChainSet {
    internal: ChainLayout,
    icache: ChainLayout,
    dcache: ChainLayout,
    boundary: ChainLayout,
    debug: ChainLayout,
}

impl ChainSet {
    /// Builds the chain layouts for the given cache geometries.
    pub fn new(
        icache_lines: usize,
        icache_tag_bits: usize,
        dcache_lines: usize,
        dcache_tag_bits: usize,
    ) -> Self {
        let internal = ChainLayout::builder(INTERNAL)
            .cell("PC", 32, CellAccess::ReadWrite)
            .cell("FLAGS", 4, CellAccess::ReadWrite)
            .cell("IR", 32, CellAccess::ReadWrite)
            .cell("MAR", 32, CellAccess::ReadWrite)
            .cell("MDR", 32, CellAccess::ReadWrite)
            .cell_array("R", Reg::COUNT, 32, CellAccess::ReadWrite)
            .cell("PSW", 6, CellAccess::ReadWrite)
            .cell("DETECT", 32, CellAccess::ReadOnly)
            .cell("ITER", 32, CellAccess::ReadOnly)
            .cell("HALTED", 1, CellAccess::ReadOnly)
            .build();
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
            icache: cache_layout(ICACHE, icache_lines, icache_tag_bits),
            dcache: cache_layout(DCACHE, dcache_lines, dcache_tag_bits),
            boundary,
            debug: DebugUnit::chain_layout(),
        }
    }

    /// All chain names in SCAN_N index order.
    pub fn names() -> [&'static str; 5] {
        [INTERNAL, ICACHE, DCACHE, BOUNDARY, DEBUG]
    }

    /// Layout by chain name.
    pub fn by_name(&self, name: &str) -> Option<&ChainLayout> {
        match name {
            INTERNAL => Some(&self.internal),
            ICACHE => Some(&self.icache),
            DCACHE => Some(&self.dcache),
            BOUNDARY => Some(&self.boundary),
            DEBUG => Some(&self.debug),
            _ => None,
        }
    }
}

fn cache_layout(name: &str, lines: usize, tag_bits: usize) -> ChainLayout {
    let mut b = ChainLayout::builder(name);
    for i in 0..lines {
        b = b
            .cell(format!("L{i}.VALID"), 1, CellAccess::ReadWrite)
            .cell(format!("L{i}.TAG"), tag_bits, CellAccess::ReadWrite)
            .cell(format!("L{i}.DATA"), 32, CellAccess::ReadWrite)
            .cell(format!("L{i}.PAR"), 1, CellAccess::ReadWrite);
    }
    b.build()
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
        l.write_cell(&mut bits, "FLAGS", self.flags as u64)?;
        l.write_cell(&mut bits, "IR", self.ir as u64)?;
        l.write_cell(&mut bits, "MAR", self.mar as u64)?;
        l.write_cell(&mut bits, "MDR", self.mdr as u64)?;
        for r in Reg::all() {
            l.write_cell(
                &mut bits,
                &format!("R{}", r.index()),
                self.regs[r.index()] as u64,
            )?;
        }
        l.write_cell(&mut bits, "PSW", self.edm.to_bits() as u64)?;
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
        self.flags = l.read_cell(bits, "FLAGS")? as u8;
        self.ir = l.read_cell(bits, "IR")? as u32;
        self.mar = l.read_cell(bits, "MAR")? as u32;
        self.mdr = l.read_cell(bits, "MDR")? as u32;
        for i in 0..Reg::COUNT {
            self.regs[i] = l.read_cell(bits, &format!("R{i}"))? as u32;
        }
        let edm = EdmSet::from_bits(l.read_cell(bits, "PSW")? as u8);
        self.set_edm(edm);
        // DETECT / ITER / HALTED are read-only: ignored on update.
        Ok(())
    }

    fn capture_cache(&self, which: &str) -> BitVec {
        let (cache, layout) = if which == ICACHE {
            (&self.icache, &self.chains.icache)
        } else {
            (&self.dcache, &self.chains.dcache)
        };
        let tag_bits = cache.tag_bits();
        let line_width = 1 + tag_bits + 32 + 1;
        let mut bits = BitVec::zeros(layout.total_bits());
        for i in 0..cache.line_count() {
            let line = cache.line(i);
            let off = i * line_width;
            bits.set(off, line.valid);
            bits.write_range(off + 1, tag_bits, line.tag as u64);
            bits.write_range(off + 1 + tag_bits, 32, line.data as u64);
            bits.set(off + 1 + tag_bits + 32, line.parity);
        }
        bits
    }

    fn update_cache(&mut self, which: &str, bits: &BitVec) {
        let cache = if which == ICACHE {
            &mut self.icache
        } else {
            &mut self.dcache
        };
        let tag_bits = cache.tag_bits();
        let line_width = 1 + tag_bits + 32 + 1;
        for i in 0..cache.line_count() {
            let off = i * line_width;
            let line = Line {
                valid: bits.get(off),
                tag: bits.read_range(off + 1, tag_bits) as u32,
                data: bits.read_range(off + 1 + tag_bits, 32) as u32,
                parity: bits.get(off + 1 + tag_bits + 32),
            };
            // Rewriting a line with its own contents keeps its parity as
            // it was; only changed lines need their parity checked again.
            if *cache.line(i) != line {
                *cache.line_mut(i) = line;
            }
        }
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
            ICACHE | DCACHE => Ok(self.capture_cache(chain)),
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
            ICACHE | DCACHE => {
                self.update_cache(chain, bits);
                Ok(())
            }
            BOUNDARY => self.update_boundary(bits),
            DEBUG => self.debug.update(bits),
            _ => Err(ScanError::UnknownChain(chain.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cpu::{CpuConfig, StopReason};
    use crate::edm::Detection;
    use scanchain::TestCard;

    fn cpu_with(src: &str) -> Cpu {
        let image = assemble(src).unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
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
        assert!(cpu.chain_layout("nope").is_none());
    }

    #[test]
    fn register_visible_and_writable_via_scan() {
        let mut cpu = cpu_with("ldi r3, 77\nhalt");
        cpu.run(10);
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        assert_eq!(card.read_cell(INTERNAL, "R3").unwrap(), 77);
        card.write_cell(INTERNAL, "R5", 0xFEED).unwrap();
        assert_eq!(card.target().reg(Reg::new(5)), 0xFEED);
    }

    #[test]
    fn detect_cell_is_read_only_and_reflects_detection() {
        let mut cpu = cpu_with("trap 3");
        cpu.run(10);
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        let code = card.read_cell(INTERNAL, "DETECT").unwrap() as u32;
        assert_eq!(Detection::decode(code), Some(Detection::Assertion(3)));
        assert!(card.write_cell(INTERNAL, "DETECT", 0).is_err());
    }

    #[test]
    fn psw_write_disables_edm() {
        let cpu = cpu_with("halt");
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        card.write_cell(INTERNAL, "PSW", 0).unwrap();
        assert_eq!(card.target().edm(), EdmSet::all_off());
    }

    #[test]
    fn icache_fault_injected_via_scan_is_parity_detected() {
        // Program long enough that word 0 is refetched from cache: a loop.
        let mut cpu = cpu_with(
            r"
        loop:
            addi r1, r1, 1
            cmpi r1, 3
            blt loop
            halt
        ",
        );
        // Prime the cache.
        cpu.step();
        cpu.step();
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        // Flip a data bit of I-cache line 0 (holds the instruction at pc 0).
        card.flip_cell_bit(ICACHE, "L0.DATA", 5).unwrap();
        let mut cpu = card.into_target();
        assert_eq!(cpu.run(100), StopReason::Detected(Detection::ParityI));
    }

    #[test]
    fn dcache_fault_detected_on_next_load() {
        let mut cpu = cpu_with(
            r"
            ld r1, r0, 40
            ld r2, r0, 40
            halt
        ",
        );
        cpu.memory_mut().write_raw(40, 1234).unwrap();
        cpu.step(); // first load primes the D-cache
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        // line index = 40 % 32 = 8
        card.flip_cell_bit(DCACHE, "L8.DATA", 0).unwrap();
        let mut cpu = card.into_target();
        assert_eq!(cpu.run(100), StopReason::Detected(Detection::ParityD));
    }

    #[test]
    fn boundary_chain_reads_outputs_and_writes_inputs() {
        let mut cpu = cpu_with(
            r"
            in r1, 1
            out 0, r1
            halt
        ",
        );
        cpu.set_in_port(1, 99);
        cpu.run(10);
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
        let cpu = cpu_with("nop\nnop\nnop\nhalt");
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        let layout = DebugUnit::chain_layout();
        let mut bits = card.read_chain(DEBUG).unwrap();
        layout.write_cell(&mut bits, "COND0.KIND", 1).unwrap(); // PcEquals
        layout.write_cell(&mut bits, "COND0.OPERAND", 2).unwrap();
        card.write_chain(DEBUG, &bits).unwrap();
        let mut cpu = card.into_target();
        match cpu.run(100) {
            StopReason::DebugEvent(ev) => {
                assert_eq!(ev.condition, DebugCondition::PcEquals(2));
            }
            other => panic!("expected breakpoint, got {other:?}"),
        }
    }

    #[test]
    fn pc_flip_via_scan_causes_control_flow_error() {
        let mut cpu = cpu_with("nop\nnop\nhalt");
        cpu.step();
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        // Set PC far outside the 3-word code segment.
        card.write_cell(INTERNAL, "PC", 0x4000).unwrap();
        let mut cpu = card.into_target();
        assert_eq!(cpu.run(100), StopReason::Detected(Detection::ControlFlow));
    }

    #[test]
    fn full_chain_write_roundtrip_preserves_state() {
        let mut cpu = cpu_with("ldi r1, 5\nldi r2, 6\nhalt");
        cpu.step();
        let before = cpu.state_vector();
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        let bits = card.read_chain(INTERNAL).unwrap();
        card.write_chain(INTERNAL, &bits).unwrap();
        assert_eq!(card.target().state_vector(), before);
    }
}
