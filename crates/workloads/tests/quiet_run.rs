//! A quiet run is a run of watched steps.
//!
//! `Core::run` checks the halt and detection latches once and, when the
//! debug unit is idle, runs the quiet instantiation of the ISA step: no bus
//! events, a plain add for the debug cycle counter, no poll of a latched
//! event, and the fetches counted once on the way out. RV32I also fetches
//! from its code segment decoded once. None of that may show: after the
//! same faults, `run(budget)` must leave every CPU exactly as the same
//! number of `step()` calls does: every scan chain (the debug unit's
//! ICOUNT, CCOUNT and HIT included), the ports, the counters, the
//! detection, memory, and the whole ISA half (Thor's cache statistics
//! included).

use goofi_core::campaign::WorkloadImage;
use goofi_core::{RunBudget, RunEvent, TargetAccess};
use riscv::{encode, AluImmOp, BranchCond, Instr, Reg, StoreWidth};
use scanchain::{Core, DebugCondition, IsaChains, ScanTarget, StopReason};
use workloads::WorkloadKind;

/// Seeded flips per program.
const FLIPS: usize = 200;
/// The suffix budget: small enough that some flips run into it.
const BUDGET: u64 = 20_000;

/// A seeded splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Up to `budget` single steps, as `run(budget)` would report them.
fn steps<I: IsaChains>(cpu: &mut Core<I>, budget: u64) -> StopReason<I::Detection> {
    (0..budget)
        .find_map(|_| cpu.step())
        .unwrap_or(StopReason::InstrLimit)
}

/// Asserts two cores are in the same state: counters, latches, ports,
/// every scan chain (the ISA's own, the boundary and the debug chain's
/// conditions, HIT, ICOUNT and CCOUNT), all memory, and everything the
/// ISA half keeps (for Thor, both caches' lines and statistics).
fn assert_same<I: IsaChains>(a: &Core<I>, b: &Core<I>, what: &str) {
    assert_eq!(
        (a.pc, a.cycles, a.instret, a.iterations, a.halted),
        (b.pc, b.cycles, b.instret, b.iterations, b.halted),
        "{what}: pc, cycles, instret, iterations, halt"
    );
    assert_eq!(a.detection, b.detection, "{what}: detection");
    assert_eq!(
        (a.in_ports, a.out_ports),
        (b.in_ports, b.out_ports),
        "{what}: ports"
    );
    for chain in a.chain_names() {
        assert_eq!(
            a.capture_chain(&chain).unwrap(),
            b.capture_chain(&chain).unwrap(),
            "{what}: chain {chain}"
        );
    }
    assert!(a.mem.same_contents(&b.mem), "{what}: memory");
    assert_eq!(
        format!("{:?}", a.isa),
        format!("{:?}", b.isa),
        "{what}: ISA half"
    );
}

/// Flips [`FLIPS`] seeded internal-chain bits at uniform instants of the
/// fault-free run on `fresh()`, and holds `run(BUDGET)` on an idle debug
/// unit to as many steps. Returns how many ran into the budget or the
/// watchdog.
fn flips_run_as_steps<I: IsaChains>(name: &str, fresh: impl Fn() -> Core<I>) -> usize {
    let mut golden = fresh();
    let len = {
        let mut end = golden.clone();
        assert_eq!(end.run(1_000_000), StopReason::Halted, "{name}");
        end.instret
    };
    let mut rng = Rng(name
        .bytes()
        .fold(0xE1, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b))));
    let mut instants: Vec<u64> = (0..FLIPS).map(|_| rng.below(len)).collect();
    instants.sort_unstable();
    let chain_len = golden.capture_chain("internal").unwrap().len() as u64;
    let mut runaways = 0;
    for (i, at) in instants.into_iter().enumerate() {
        while golden.instret < at {
            assert_eq!(golden.step(), None, "{name}: fault-free step");
        }
        let mut bits = golden.capture_chain("internal").unwrap();
        let bit = rng.below(chain_len) as usize;
        bits.flip(bit);
        let mut quiet = golden.clone();
        quiet.update_chain("internal", &bits).unwrap();
        let mut watched = quiet.clone();
        let what = format!("{name} flip {i} (bit {bit} at {at})");

        let stop = quiet.run(BUDGET);
        assert_eq!(stop, steps(&mut watched, BUDGET), "{what}: stop");
        assert_same(&quiet, &watched, &what);
        if matches!(stop, StopReason::InstrLimit | StopReason::Timeout) {
            runaways += 1;
        }
    }
    runaways
}

/// A core whose watchdog fires partway into the suffix budget, so a
/// runaway flip ends either way.
fn watchdog_after<I: IsaChains>(core: impl Fn() -> Core<I>, extra: u64) -> Option<u64> {
    let mut end = core();
    end.run(1_000_000);
    Some(end.cycles + extra)
}

#[test]
fn after_internal_chain_flips_a_quiet_run_ends_as_single_steps_do_on_both_cpus() {
    let mut runaways = 0;
    for w in workloads::all() {
        if w.kind != WorkloadKind::Terminating {
            continue;
        }
        let load = |config: thor::CpuConfig| {
            let mut cpu = thor::Cpu::new(config);
            cpu.load_image(&w.image).unwrap();
            cpu
        };
        let config = thor::CpuConfig {
            watchdog_cycles: watchdog_after(|| load(thor::CpuConfig::default()), 30_000),
            ..thor::CpuConfig::default()
        };
        runaways += flips_run_as_steps(&w.name, || load(config));
    }
    for w in workloads::riscv_all() {
        assert_eq!(w.kind, WorkloadKind::Terminating);
        let load = |config: riscv::CpuConfig| {
            let mut cpu = riscv::Cpu::new(config);
            cpu.load_image(&w.image).unwrap();
            cpu
        };
        let config = riscv::CpuConfig {
            watchdog_cycles: watchdog_after(|| load(riscv::CpuConfig::default()), 30_000),
            ..riscv::CpuConfig::default()
        };
        runaways += flips_run_as_steps(&w.name, || load(config));
    }
    assert!(runaways > 0, "no flip ran away; the budget tests nothing");
}

fn addi(rd: u8, rs1: u8, imm: i32) -> u32 {
    encode(Instr::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::new(rd),
        rs1: Reg::new(rs1),
        imm,
    })
}

fn halt() -> [u32; 2] {
    [addi(17, 0, riscv::ECALL_HALT as i32), encode(Instr::Ecall)]
}

fn rv_core(code: &[u32]) -> riscv::Cpu {
    let mut cpu = riscv::Cpu::new(riscv::CpuConfig::default());
    cpu.load_image(&riscv::Image {
        words: code.to_vec(),
        code_words: code.len() as u32,
        entry: 0,
    })
    .unwrap();
    cpu
}

/// `x5 += 1` three times in a loop (word 2 is the add), then halt.
fn counting_loop() -> Vec<u32> {
    let mut code = vec![
        addi(5, 0, 0),
        addi(6, 0, 3),
        addi(5, 5, 1),
        addi(6, 6, -1),
        encode(Instr::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::new(6),
            rs2: Reg::X0,
            offset: -8,
        }),
    ];
    code.extend(halt());
    code
}

#[test]
fn a_tool_flip_of_a_code_word_between_runs_executes_the_new_word() {
    let code = counting_loop();
    let mut quiet = rv_core(&code);
    assert_eq!(quiet.run(5), StopReason::InstrLimit);
    assert_eq!((quiet.pc, quiet.isa.reg(Reg::new(5))), (8, 1));
    let mut watched = quiet.clone();
    // Immediate bit 1: the add becomes `x5 += 3`.
    for cpu in [&mut quiet, &mut watched] {
        cpu.memory_mut().flip_bit(2, 21).unwrap();
    }
    assert_eq!(quiet.run(100), StopReason::Halted);
    assert_eq!(steps(&mut watched, 100), StopReason::Halted);
    assert_eq!(quiet.isa.reg(Reg::new(5)), 1 + 3 + 3);
    assert_same(&quiet, &watched, "code flip");
}

#[test]
fn restoring_a_snapshot_taken_before_a_code_flip_executes_the_old_word() {
    let code = counting_loop();
    let mut target = goofi_riscv::RiscvTarget::default();
    target
        .load_workload(&WorkloadImage {
            name: "counting-loop".into(),
            code_words: code.len() as u32,
            words: code,
            entry: 0,
        })
        .unwrap();
    let budget = |max_instructions| RunBudget { max_instructions };
    assert_eq!(
        target.run_workload(budget(5)).unwrap(),
        RunEvent::BudgetExhausted
    );
    let before = target.snapshot().unwrap();
    target.flip_memory_bit(2, 21).unwrap();
    assert_eq!(target.run_workload(budget(100)).unwrap(), RunEvent::Halted);
    assert_eq!(target.cpu().isa.reg(Reg::new(5)), 7);

    target.restore(&before).unwrap();
    assert_eq!(target.read_memory(2, 1).unwrap(), [addi(5, 5, 1)]);
    assert_eq!(target.run_workload(budget(100)).unwrap(), RunEvent::Halted);
    assert_eq!(target.cpu().isa.reg(Reg::new(5)), 3);
}

#[test]
fn with_protection_off_the_next_fetch_sees_a_program_store_into_code() {
    // x5 = `addi x6, x0, 42`, stored over word 5 (`addi x6, x0, 1`), which
    // runs next.
    let patch = addi(6, 0, 42);
    let upper = patch.wrapping_add(0x800) >> 12;
    let mut code = vec![
        encode(Instr::Lui {
            rd: Reg::new(5),
            imm20: upper,
        }),
        addi(5, 5, (patch.wrapping_sub(upper << 12)) as i32),
        addi(7, 0, 0),
        encode(Instr::Store {
            width: StoreWidth::W,
            rs1: Reg::X0,
            rs2: Reg::new(5),
            offset: 20,
        }),
        addi(7, 7, 1),
        addi(6, 0, 1),
    ];
    code.extend(halt());

    let mut quiet = rv_core(&code);
    assert_eq!(
        quiet.run(100),
        StopReason::Detected(riscv::Detection::AccessFault),
        "protected code"
    );

    let mut quiet = rv_core(&code);
    quiet.memory_mut().set_protection(false);
    let mut watched = quiet.clone();
    assert_eq!(quiet.run(100), StopReason::Halted);
    assert_eq!(steps(&mut watched, 100), StopReason::Halted);
    assert_eq!(quiet.memory().read_raw(5), Ok(patch));
    assert_eq!(
        (quiet.isa.reg(Reg::new(6)), quiet.isa.reg(Reg::new(7))),
        (42, 1)
    );
    assert_same(&quiet, &watched, "store into code");
}

#[test]
fn a_run_with_a_condition_armed_ends_as_single_steps_do() {
    let mut fired = 0;
    for w in workloads::riscv_all() {
        let mut end = riscv::Cpu::new(riscv::CpuConfig::default());
        end.load_image(&w.image).unwrap();
        assert_eq!(end.run(1_000_000), StopReason::Halted);
        let output = match w.output {
            workloads::OutputSpec::Memory { addr, .. } => addr,
            workloads::OutputSpec::Ports => unreachable!("{} writes memory", w.name),
        };
        let conditions = [
            DebugCondition::PcEquals(end.pc - 8),
            DebugCondition::InstructionCount(end.instret / 2),
            DebugCondition::DataWrite(output),
            DebugCondition::DataAccess(output),
            DebugCondition::BranchExecuted,
            DebugCondition::CallExecuted,
            DebugCondition::CycleCount(end.cycles / 3),
        ];
        for condition in conditions {
            let mut quiet = riscv::Cpu::new(riscv::CpuConfig::default());
            quiet.load_image(&w.image).unwrap();
            quiet.debug_unit_mut().arm(condition);
            let mut watched = quiet.clone();
            let what = format!("{} with {condition:?}", w.name);
            let stop = quiet.run(1_000_000);
            assert_eq!(stop, steps(&mut watched, 1_000_000), "{what}");
            assert_same(&quiet, &watched, &what);
            // A latched event stops the next run after one instruction
            // too, on both paths.
            if let StopReason::DebugEvent(_) = stop {
                fired += 1;
                assert_eq!(quiet.run(1_000_000), steps(&mut watched, 1), "{what}");
                assert_same(&quiet, &watched, &what);
            }
        }
    }
    assert!(fired >= 10, "only {fired} conditions fired");
}
