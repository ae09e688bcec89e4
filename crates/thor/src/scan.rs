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
use crate::cpu::{Cpu, ThorIsa};
use crate::edm::EdmSet;
use crate::isa::Reg;
use scanchain::{BitVec, CellAccess, ChainLayout, Detection as _, IsaChains, ScanError};
pub use scanchain::{BOUNDARY_CHAIN as BOUNDARY, DEBUG_CHAIN as DEBUG};

/// Name of the internal (register/latch) chain.
pub const INTERNAL: &str = "internal";
/// Name of the instruction-cache chain.
pub const ICACHE: &str = "icache";
/// Name of the data-cache chain.
pub const DCACHE: &str = "dcache";

/// Index of the `FLAGS` cell in the internal chain, as the access log
/// names it.
pub(crate) const FLAGS_CELL: usize = 1;
/// Index of the `R0` cell in the internal chain; `Rn` is `R0_CELL + n`.
pub(crate) const R0_CELL: usize = 5;

/// Thor's own chain layouts (geometry-dependent); the boundary and debug
/// chains are the shared core's.
#[derive(Debug, Clone)]
pub struct ChainSet {
    internal: ChainLayout,
    icache: ChainLayout,
    dcache: ChainLayout,
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
        debug_assert_eq!(internal.cells()[FLAGS_CELL].name, "FLAGS");
        debug_assert_eq!(internal.cells()[R0_CELL].name, "R0");
        ChainSet {
            internal,
            icache: cache_layout(ICACHE, icache_lines, icache_tag_bits),
            dcache: cache_layout(DCACHE, dcache_lines, dcache_tag_bits),
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

// The internal chain is captured and updated by cell index, in the order
// `ChainSet::new` builds its cells.

fn capture_internal(cpu: &Cpu) -> Result<BitVec, ScanError> {
    let latches = [
        cpu.pc as u64,
        cpu.isa.flags as u64,
        cpu.isa.ir as u64,
        cpu.isa.mar as u64,
        cpu.isa.mdr as u64,
    ];
    let regs = cpu.isa.regs.iter().map(|&r| r as u64);
    let status = [
        cpu.isa.edm.to_bits() as u64,
        cpu.detection.map_or(0, |d| d.encode()) as u64,
        cpu.iterations & 0xFFFF_FFFF,
        cpu.halted as u64,
    ];
    cpu.isa
        .chains
        .internal
        .pack(latches.into_iter().chain(regs).chain(status))
}

fn update_internal(cpu: &mut Cpu, bits: &BitVec) -> Result<(), ScanError> {
    // DETECT / ITER / HALTED are read-only: ignored on update.
    let [pc, flags, ir, mar, mdr, regs @ .., psw, _detect, _iter, _halted] =
        cpu.isa.chains.internal.unpack::<{ Reg::COUNT + 9 }>(bits)?;
    cpu.pc = pc as u32;
    let isa = &mut cpu.isa;
    isa.flags = flags as u8;
    isa.ir = ir as u32;
    isa.mar = mar as u32;
    isa.mdr = mdr as u32;
    isa.regs = regs.map(|r| r as u32);
    isa.set_edm(EdmSet::from_bits(psw as u8));
    Ok(())
}

impl ThorIsa {
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
}

impl IsaChains for ThorIsa {
    const CHAINS: &'static [&'static str] = &[INTERNAL, ICACHE, DCACHE];

    fn layout(&self, chain: &str) -> Option<&ChainLayout> {
        match chain {
            INTERNAL => Some(&self.chains.internal),
            ICACHE => Some(&self.chains.icache),
            DCACHE => Some(&self.chains.dcache),
            _ => None,
        }
    }

    fn capture(cpu: &Cpu, chain: &str) -> Result<BitVec, ScanError> {
        match chain {
            INTERNAL => capture_internal(cpu),
            ICACHE | DCACHE => Ok(cpu.isa.capture_cache(chain)),
            _ => Err(ScanError::UnknownChain(chain.to_string())),
        }
    }

    fn update(cpu: &mut Cpu, chain: &str, bits: &BitVec) -> Result<(), ScanError> {
        match chain {
            INTERNAL => update_internal(cpu, bits),
            ICACHE | DCACHE => {
                cpu.isa.update_cache(chain, bits);
                Ok(())
            }
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
    use scanchain::{DebugUnit, ScanTarget, TestCard, PORT_COUNT};

    fn cpu_with(src: &str) -> Cpu {
        let image = assemble(src).unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        cpu
    }

    #[test]
    fn every_cell_captures_and_updates_its_own_field() {
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.pc = 0x1000;
        cpu.flags = 0b1010;
        cpu.ir = 0x1001;
        cpu.mar = 0x1002;
        cpu.mdr = 0x1003;
        for (i, reg) in cpu.regs.iter_mut().enumerate() {
            *reg = 0x100 + i as u32;
        }
        cpu.set_edm(EdmSet::from_bits(0b10_1101));
        for i in 0..PORT_COUNT {
            cpu.in_ports[i] = 0x200 + i as u32;
            cpu.out_ports[i] = 0x300 + i as u32;
        }
        // Detected but not halted: the two 1-bit pins differ.
        cpu.detection = Some(Detection::Assertion(3));
        cpu.iterations = 0x7_0000_0042;
        cpu.halted = false;

        let internal = cpu.capture_chain(INTERNAL).unwrap();
        let cell = |name: &str| cpu.chains.internal.read_cell(&internal, name).unwrap();
        assert_eq!(
            ["PC", "FLAGS", "IR", "MAR", "MDR", "PSW"].map(cell),
            [0x1000, 0b1010, 0x1001, 0x1002, 0x1003, 0b10_1101]
        );
        for i in 0..Reg::COUNT {
            assert_eq!(cell(&format!("R{i}")), 0x100 + i as u64, "R{i}");
        }
        assert_eq!(cell("DETECT"), u64::from(Detection::Assertion(3).encode()));
        assert_eq!(cell("ITER"), 0x42);
        assert_eq!(cell("HALTED"), 0);
        let boundary = cpu.capture_chain(BOUNDARY).unwrap();
        let boundary_layout = cpu.chain_layout(BOUNDARY).unwrap().clone();
        let pin = |name: &str| boundary_layout.read_cell(&boundary, name).unwrap();
        for i in 0..PORT_COUNT {
            assert_eq!(pin(&format!("IN_PORT{i}")), 0x200 + i as u64, "IN_PORT{i}");
            assert_eq!(
                pin(&format!("OUT_PORT{i}")),
                0x300 + i as u64,
                "OUT_PORT{i}"
            );
        }
        assert_eq!((pin("ERROR_PIN"), pin("HALT_PIN")), (1, 0));

        let layout = cpu.chains.internal.clone();
        let mut bits = internal.clone();
        for (name, value) in [("PC", 0x2000), ("FLAGS", 0b0101), ("IR", 0x2001)]
            .into_iter()
            .chain([("MAR", 0x2002), ("MDR", 0x2003), ("PSW", 0b01_0110)])
        {
            layout.write_cell(&mut bits, name, value).unwrap();
        }
        for i in 0..Reg::COUNT {
            layout
                .write_cell(&mut bits, &format!("R{i}"), 0x400 + i as u64)
                .unwrap();
        }
        cpu.update_chain(INTERNAL, &bits).unwrap();
        assert_eq!(
            (cpu.pc, cpu.flags, cpu.ir, cpu.mar, cpu.mdr),
            (0x2000, 0b0101, 0x2001, 0x2002, 0x2003)
        );
        assert_eq!(cpu.edm().to_bits(), 0b01_0110);
        for i in 0..Reg::COUNT {
            assert_eq!(cpu.regs[i], 0x400 + i as u32, "R{i}");
        }
        let layout = boundary_layout;
        let mut bits = boundary.clone();
        for i in 0..PORT_COUNT {
            layout
                .write_cell(&mut bits, &format!("IN_PORT{i}"), 0x500 + i as u64)
                .unwrap();
        }
        cpu.update_chain(BOUNDARY, &bits).unwrap();
        for i in 0..PORT_COUNT {
            assert_eq!(cpu.in_ports[i], 0x500 + i as u32, "IN_PORT{i}");
            assert_eq!(cpu.out_ports[i], 0x300 + i as u32, "OUT_PORT{i}");
        }
    }

    #[test]
    fn chain_names_and_layouts_exist() {
        let cpu = Cpu::new(CpuConfig::default());
        for name in cpu.chain_names() {
            let name = name.as_str();
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
        let chains = |cpu: &Cpu| {
            cpu.chain_names()
                .iter()
                .map(|chain| cpu.capture_chain(chain).unwrap())
                .collect::<Vec<_>>()
        };
        let before = chains(&cpu);
        let mut card = TestCard::new(cpu);
        card.init().unwrap();
        let bits = card.read_chain(INTERNAL).unwrap();
        card.write_chain(INTERNAL, &bits).unwrap();
        assert_eq!(chains(card.target()), before);
    }
}
