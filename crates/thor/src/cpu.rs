//! Thor's ISA half: registers, IR/MAR/MDR, EDMs, both caches, and
//! fetch/decode/execute. Ports, counters, the watchdog, the debug unit and
//! the run loop are the shared [`Core`] skeleton's.

use crate::asm::Image;
use crate::cache::{Cache, CacheConfig, Lookup};
use crate::edm::{Detection, EdmSet};
use crate::isa::{decode, Instr, Opcode, Reg};
use crate::scan::{ChainSet, FLAGS_CELL, R0_CELL};
use scanchain::{BusEvent, Core, Isa, MemoryError, PORT_COUNT};

/// Construction-time CPU configuration.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// Main memory size in words.
    pub mem_words: usize,
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Initially enabled error detection mechanisms.
    pub edm: EdmSet,
    /// Watchdog budget in cycles; `None` disables the watchdog.
    pub watchdog_cycles: Option<u64>,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            mem_words: scanchain::DEFAULT_MEMORY_WORDS,
            icache: CacheConfig::default(),
            dcache: CacheConfig::default(),
            edm: EdmSet::default(),
            watchdog_cycles: Some(2_000_000),
        }
    }
}

/// The simulated processor: the shared core skeleton around Thor's ISA
/// half.
///
/// See the crate docs for an end-to-end example. The scan-chain view of the
/// CPU lives in [`crate::scan`].
pub type Cpu = Core<ThorIsa>;

/// Why execution stopped.
pub type StopReason = scanchain::StopReason<Detection>;

/// Condition-code flags.
const FLAG_Z: u8 = 1;
const FLAG_N: u8 = 2;
const FLAG_C: u8 = 4;
const FLAG_V: u8 = 8;

/// Slots in the decoded-instruction cache.
const DECODE_SLOTS: usize = 64;

/// A direct-mapped cache of decoded instructions, indexed by the low bits
/// of the fetch word address and keyed by the fetched word itself.
///
/// Decoding is a pure function of the word, so a slot whose stored word
/// equals the fetched word holds exactly what the decoder would return,
/// and nothing ever needs invalidating: a SWIFI code flip or a scan fault
/// in an instruction cache changes the fetched word and misses. Words that
/// fail to decode are never stored. Thor decodes whatever word its
/// instruction cache returns, which may differ from memory, so it keeps
/// this cache rather than decoding its code segment once (as RV32I does,
/// through [`Isa::sync_code`]).
#[derive(Debug, Clone)]
struct DecodeCache<T> {
    slots: [(u32, T); DECODE_SLOTS],
}

impl<T: Copy> DecodeCache<T> {
    /// A cache whose every slot holds `word` and its decoding `decoded`.
    fn new(word: u32, decoded: T) -> Self {
        DecodeCache {
            slots: [(word, decoded); DECODE_SLOTS],
        }
    }

    /// The decoding of `word`, fetched from word address `addr`: its
    /// slot's if the slot holds `word`, else `decode`'s, which fills the
    /// slot when it succeeds.
    ///
    /// # Errors
    ///
    /// Whatever `decode` returns for an undecodable word.
    #[inline(always)]
    fn decode<E>(
        &mut self,
        addr: u32,
        word: u32,
        decode: impl FnOnce(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let slot = &mut self.slots[addr as usize % DECODE_SLOTS];
        if slot.0 == word {
            return Ok(slot.1);
        }
        let decoded = decode(word)?;
        *slot = (word, decoded);
        Ok(decoded)
    }
}

/// Thor's half of a [`Cpu`]; its accessors read as the CPU's own.
#[derive(Debug, Clone)]
pub struct ThorIsa {
    pub(crate) regs: [u32; Reg::COUNT],
    pub(crate) flags: u8,
    pub(crate) ir: u32,
    pub(crate) mar: u32,
    pub(crate) mdr: u32,
    pub(crate) edm: EdmSet,
    pub(crate) icache: Cache,
    pub(crate) dcache: Cache,
    /// The configured EDM set, restored by reset — without it an injected
    /// PSW bit flip would survive reset and contaminate every later
    /// experiment (and the golden run) of a campaign.
    config_edm: EdmSet,
    decoded: DecodeCache<Instr>,
    pub(crate) chains: ChainSet,
}

impl ThorIsa {
    /// The enabled error detection mechanisms.
    pub fn edm(&self) -> EdmSet {
        self.edm
    }

    /// Reconfigures the enabled EDMs (also reachable via the PSW scan cell).
    pub fn set_edm(&mut self, edm: EdmSet) {
        self.edm = edm;
        self.icache.set_parity_enabled(edm.parity_i);
        self.dcache.set_parity_enabled(edm.parity_d);
    }

    /// Invalidates any cached copy of `addr` in both caches. The test card
    /// calls this after tool-side memory writes so a SWIFI fault is not
    /// silently masked by a stale cache line.
    pub fn invalidate_cached(&mut self, addr: u32) {
        self.icache.invalidate(addr);
        self.dcache.invalidate(addr);
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Instruction-cache statistics.
    pub fn icache_stats(&self) -> crate::cache::CacheStats {
        self.icache.stats()
    }

    /// Data-cache statistics.
    pub fn dcache_stats(&self) -> crate::cache::CacheStats {
        self.dcache.stats()
    }

    #[inline]
    fn set_zn(&mut self, value: u32) {
        self.flags &= !(FLAG_Z | FLAG_N);
        if value == 0 {
            self.flags |= FLAG_Z;
        }
        if (value as i32) < 0 {
            self.flags |= FLAG_N;
        }
    }

    #[inline]
    fn set_arith_flags(&mut self, a: u32, b: u32, result: u32, carry: bool) {
        self.set_zn(result);
        self.flags &= !(FLAG_C | FLAG_V);
        if carry {
            self.flags |= FLAG_C;
        }
        // Signed overflow of a - b or a + b is summarised by the caller via
        // `carry`; V is computed from operand signs here for a + b form.
        let v = ((a ^ result) & (b ^ result)) >> 31 == 1;
        if v {
            self.flags |= FLAG_V;
        }
    }
}

impl Isa for ThorIsa {
    const NAME: &'static str = "thor-rd";
    type Detection = Detection;
    type Config = CpuConfig;
    type Image = Image;

    fn build(config: CpuConfig) -> Cpu {
        let mut icache = Cache::new(config.icache);
        let mut dcache = Cache::new(config.dcache);
        icache.set_parity_enabled(config.edm.parity_i);
        dcache.set_parity_enabled(config.edm.parity_d);
        let chains = ChainSet::new(
            icache.line_count(),
            icache.tag_bits(),
            dcache.line_count(),
            dcache.tag_bits(),
        );
        let isa = ThorIsa {
            regs: [0; Reg::COUNT],
            flags: 0,
            ir: 0,
            mar: 0,
            mdr: 0,
            edm: config.edm,
            icache,
            dcache,
            config_edm: config.edm,
            // Every slot starts as the valid pair (0, decode(0)).
            decoded: DecodeCache::new(0, decode(0).expect("word 0 decodes")),
            chains,
        };
        let initial_sp = config.mem_words as u32 - 1;
        Core::with_isa(isa, config.mem_words, config.watchdog_cycles, initial_sp)
    }

    fn image(image: &Image) -> (&[u32], u32, u32) {
        (&image.words, image.code_words, image.entry)
    }

    /// Registers, IR/MAR/MDR and both caches clear; the PSW error-detection
    /// mask reverts to its configured value, so a fault injected into the
    /// PSW scan cell does not outlive its own experiment.
    fn reset(&mut self, initial_sp: u32) {
        self.regs = [0; Reg::COUNT];
        self.regs[Reg::SP.index()] = initial_sp;
        self.flags = 0;
        self.ir = 0;
        self.mar = 0;
        self.mdr = 0;
        self.edm = self.config_edm;
        self.icache.reset();
        self.dcache.reset();
        self.icache.set_parity_enabled(self.edm.parity_i);
        self.dcache.set_parity_enabled(self.edm.parity_d);
    }

    #[inline(always)]
    fn step_inner<const LOG: bool, const WATCH: bool>(cpu: &mut Cpu) -> Option<StopReason> {
        if LOG {
            cpu.log.pc = cpu.pc;
        }

        // Control-flow check of the fetch address itself.
        if cpu.pc >= cpu.mem.code_segment() && cpu.isa.edm.control_flow {
            return Some(cpu.detect(Detection::ControlFlow));
        }

        // Fetch through the instruction cache.
        let word = match cpu.isa.icache.lookup(cpu.pc, cpu.instret) {
            Lookup::Hit(w) => {
                cpu.cycles += 1;
                w
            }
            Lookup::Miss => match cpu.mem.read(cpu.pc) {
                Ok(w) => {
                    cpu.isa.icache.fill(cpu.pc, w, cpu.instret);
                    cpu.cycles += 4;
                    w
                }
                Err(_) => {
                    if cpu.isa.edm.access_violation {
                        return Some(cpu.detect(Detection::AccessViolation));
                    }
                    cpu.cycles += 4;
                    0 // reads beyond memory float to zero (NOP)
                }
            },
            Lookup::ParityError => return Some(cpu.detect(Detection::ParityI)),
        };
        cpu.isa.ir = word;
        cpu.isa.mar = cpu.pc;

        // Decode.
        let instr = match cpu.isa.decoded.decode(cpu.pc, word, decode) {
            Ok(i) => i,
            Err(_) => {
                if cpu.isa.edm.illegal_opcode {
                    return Some(cpu.detect(Detection::IllegalOpcode));
                }
                // Detection disabled: the word executes as a NOP.
                cpu.pc = cpu.pc.wrapping_add(1);
                cpu.instret += 1;
                cpu.cycles += 1;
                cpu.on_cycles::<WATCH>(1);
                return cpu.debug_stop::<WATCH>();
            }
        };

        // Execute.
        let stop = execute::<LOG, WATCH>(cpu, instr);
        cpu.instret += 1;
        if stop.is_some() {
            return stop;
        }
        // Surface any debug event latched by a data-access/branch/call/
        // cycle trigger during execution.
        cpu.debug_stop::<WATCH>()
    }

    /// Keeps the caches coherent with the tool-side write, or the fault
    /// would be masked by a stale cached copy.
    fn invalidate(cpu: &mut Cpu, addr: u32, words: u32) {
        for addr in addr..addr + words {
            cpu.invalidate_cached(addr);
        }
    }

    /// Registers, flags, IR/MAR/MDR and the PSW must match, and so must
    /// every cache line the run looks up or fills after `checkpoint`.
    fn rejoins(&self, checkpoint: &Self, end: &Self, since: u64) -> bool {
        (self.regs, self.flags) == (checkpoint.regs, checkpoint.flags)
            && (self.ir, self.mar, self.mdr) == (checkpoint.ir, checkpoint.mar, checkpoint.mdr)
            && (self.edm, self.config_edm) == (checkpoint.edm, checkpoint.config_edm)
            && self
                .icache
                .matches_where_used(&checkpoint.icache, &end.icache, since)
            && self
                .dcache
                .matches_where_used(&checkpoint.dcache, &end.dcache, since)
    }

    /// Lines the run never uses again keep `live`'s contents; cache
    /// statistics move by `live`'s distance from `checkpoint`.
    fn rebase(&mut self, live: &Self, checkpoint: &Self, since: u64) {
        self.icache.rebase(&live.icache, &checkpoint.icache, since);
        self.dcache.rebase(&live.dcache, &checkpoint.dcache, since);
    }

    fn unmasked(&self, d: Detection) -> bool {
        self.edm.allows(d)
    }
}

#[inline(always)]
fn log_reg_read<const LOG: bool>(cpu: &mut Cpu, r: Reg) -> u32 {
    if LOG {
        cpu.log.cell_reads.push(R0_CELL + r.index());
    }
    cpu.isa.regs[r.index()]
}

#[inline(always)]
fn log_reg_write<const LOG: bool>(cpu: &mut Cpu, r: Reg, v: u32) {
    if LOG {
        cpu.log.cell_writes.push(R0_CELL + r.index());
    }
    cpu.isa.regs[r.index()] = v;
}

/// Data read through the D-cache. Returns `Err(stop)` on detection.
#[inline(always)]
fn data_read<const LOG: bool, const WATCH: bool>(
    cpu: &mut Cpu,
    addr: u32,
) -> Result<u32, StopReason> {
    cpu.isa.mar = addr;
    if LOG {
        cpu.log.mem_reads.push(addr);
    }
    let value = match cpu.isa.dcache.lookup(addr, cpu.instret) {
        Lookup::Hit(v) => {
            cpu.cycles += 1;
            v
        }
        Lookup::Miss => match cpu.mem.read(addr) {
            Ok(v) => {
                cpu.isa.dcache.fill(addr, v, cpu.instret);
                cpu.cycles += 4;
                v
            }
            Err(MemoryError::OutOfRange { .. }) => {
                if cpu.isa.edm.access_violation {
                    return Err(cpu.detect(Detection::AccessViolation));
                }
                cpu.cycles += 4;
                0
            }
            Err(MemoryError::WriteProtected { .. }) => {
                unreachable!("read cannot hit protection")
            }
        },
        Lookup::ParityError => return Err(cpu.detect(Detection::ParityD)),
    };
    cpu.isa.mdr = value;
    cpu.observe::<WATCH>(BusEvent::DataRead { addr });
    Ok(value)
}

/// Data write, write-through with allocate. Returns `Err(stop)` on
/// detection.
#[inline(always)]
fn data_write<const LOG: bool, const WATCH: bool>(
    cpu: &mut Cpu,
    addr: u32,
    value: u32,
) -> Result<(), StopReason> {
    cpu.isa.mar = addr;
    cpu.isa.mdr = value;
    if LOG {
        cpu.log.mem_writes.push(addr);
    }
    match cpu.mem.write(addr, value) {
        Ok(()) => {
            cpu.isa.dcache.fill(addr, value, cpu.instret);
            cpu.cycles += 2;
            cpu.observe::<WATCH>(BusEvent::DataWrite { addr });
            Ok(())
        }
        Err(_) => {
            if cpu.isa.edm.access_violation {
                Err(cpu.detect(Detection::AccessViolation))
            } else {
                // Detection disabled: the store is silently dropped.
                cpu.cycles += 2;
                Ok(())
            }
        }
    }
}

/// Transfers control to `target` (branch/call/return). Returns
/// `Err(stop)` when control-flow checking rejects the target.
#[inline(always)]
fn jump<const WATCH: bool>(cpu: &mut Cpu, target: u32, is_call: bool) -> Result<(), StopReason> {
    if cpu.isa.edm.control_flow && target >= cpu.mem.code_segment() {
        return Err(cpu.detect(Detection::ControlFlow));
    }
    cpu.pc = target;
    cpu.cycles += 1;
    let ev = if is_call {
        BusEvent::Call { target }
    } else {
        BusEvent::Branch { target }
    };
    cpu.observe::<WATCH>(ev);
    Ok(())
}

#[allow(clippy::too_many_lines)]
#[inline(always)]
fn execute<const LOG: bool, const WATCH: bool>(cpu: &mut Cpu, instr: Instr) -> Option<StopReason> {
    use Opcode::*;
    let next_pc = cpu.pc.wrapping_add(1);
    let mut pc_set = false;
    let mut cost = 1u64;

    macro_rules! stop_on {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(stop) => {
                    cpu.on_cycles::<WATCH>(cost);
                    return Some(stop);
                }
            }
        };
    }

    match instr {
        Instr::R { op, rd, rs1, rs2 } => {
            let a = log_reg_read::<LOG>(cpu, rs1);
            let b = log_reg_read::<LOG>(cpu, rs2);
            match op {
                Nop => {}
                Halt => {
                    cpu.halted = true;
                    cpu.cycles += cost;
                    cpu.on_cycles::<WATCH>(cost);
                    return Some(StopReason::Halted);
                }
                Add => {
                    let (r, c) = a.overflowing_add(b);
                    if cpu.isa.edm.overflow && (a as i32).checked_add(b as i32).is_none() {
                        return Some(cpu.detect(Detection::Overflow));
                    }
                    cpu.isa.set_arith_flags(a, b, r, c);
                    if LOG {
                        cpu.log.cell_writes.push(FLAGS_CELL);
                    }
                    log_reg_write::<LOG>(cpu, rd, r);
                }
                Sub | Cmp => {
                    let (r, borrow) = a.overflowing_sub(b);
                    if op == Sub
                        && cpu.isa.edm.overflow
                        && (a as i32).checked_sub(b as i32).is_none()
                    {
                        return Some(cpu.detect(Detection::Overflow));
                    }
                    cpu.isa.set_arith_flags(a, !b, r, !borrow);
                    if LOG {
                        cpu.log.cell_writes.push(FLAGS_CELL);
                    }
                    if op == Sub {
                        log_reg_write::<LOG>(cpu, rd, r);
                    }
                }
                Mul => {
                    cost += 3;
                    if cpu.isa.edm.overflow && (a as i32).checked_mul(b as i32).is_none() {
                        return Some(cpu.detect(Detection::Overflow));
                    }
                    let r = a.wrapping_mul(b);
                    cpu.isa.set_zn(r);
                    if LOG {
                        cpu.log.cell_writes.push(FLAGS_CELL);
                    }
                    log_reg_write::<LOG>(cpu, rd, r);
                }
                Div => {
                    cost += 10;
                    if b == 0 {
                        return Some(cpu.detect(Detection::DivideByZero));
                    }
                    let r = ((a as i32).wrapping_div(b as i32)) as u32;
                    cpu.isa.set_zn(r);
                    if LOG {
                        cpu.log.cell_writes.push(FLAGS_CELL);
                    }
                    log_reg_write::<LOG>(cpu, rd, r);
                }
                And | Or | Xor | Shl | Shr | Asr => {
                    let r = match op {
                        And => a & b,
                        Or => a | b,
                        Xor => a ^ b,
                        Shl => a.wrapping_shl(b & 31),
                        Shr => a.wrapping_shr(b & 31),
                        Asr => ((a as i32).wrapping_shr(b & 31)) as u32,
                        _ => unreachable!(),
                    };
                    cpu.isa.set_zn(r);
                    if LOG {
                        cpu.log.cell_writes.push(FLAGS_CELL);
                    }
                    log_reg_write::<LOG>(cpu, rd, r);
                }
                Mov => {
                    log_reg_write::<LOG>(cpu, rd, a);
                }
                Ldx => {
                    let addr = a.wrapping_add(b);
                    let v = stop_on!(data_read::<LOG, WATCH>(cpu, addr));
                    log_reg_write::<LOG>(cpu, rd, v);
                    cost += 1;
                }
                Stx => {
                    let addr = a.wrapping_add(b);
                    let v = log_reg_read::<LOG>(cpu, rd);
                    stop_on!(data_write::<LOG, WATCH>(cpu, addr, v));
                    cost += 1;
                }
                Push => {
                    let sp = log_reg_read::<LOG>(cpu, Reg::SP).wrapping_sub(1);
                    log_reg_write::<LOG>(cpu, Reg::SP, sp);
                    stop_on!(data_write::<LOG, WATCH>(cpu, sp, a));
                    cost += 1;
                }
                Pop => {
                    let sp = log_reg_read::<LOG>(cpu, Reg::SP);
                    let v = stop_on!(data_read::<LOG, WATCH>(cpu, sp));
                    log_reg_write::<LOG>(cpu, rd, v);
                    log_reg_write::<LOG>(cpu, Reg::SP, sp.wrapping_add(1));
                    cost += 1;
                }
                Ret => {
                    let target = log_reg_read::<LOG>(cpu, Reg::LR);
                    stop_on!(jump::<WATCH>(cpu, target, false));
                    pc_set = true;
                }
                Jr => {
                    stop_on!(jump::<WATCH>(cpu, a, false));
                    pc_set = true;
                }
                _ => unreachable!("imm opcode in R form"),
            }
        }
        Instr::I { op, rd, rs1, imm } => {
            let simm = imm as i32 as u32;
            let zimm = imm as u16 as u32;
            match op {
                Addi | Subi | Muli | Cmpi => {
                    let a = log_reg_read::<LOG>(cpu, rs1);
                    match op {
                        Addi => {
                            let (r, c) = a.overflowing_add(simm);
                            if cpu.isa.edm.overflow && (a as i32).checked_add(imm as i32).is_none()
                            {
                                return Some(cpu.detect(Detection::Overflow));
                            }
                            cpu.isa.set_arith_flags(a, simm, r, c);
                            log_reg_write::<LOG>(cpu, rd, r);
                        }
                        Subi | Cmpi => {
                            let (r, borrow) = a.overflowing_sub(simm);
                            if op == Subi
                                && cpu.isa.edm.overflow
                                && (a as i32).checked_sub(imm as i32).is_none()
                            {
                                return Some(cpu.detect(Detection::Overflow));
                            }
                            cpu.isa.set_arith_flags(a, !simm, r, !borrow);
                            if op == Subi {
                                log_reg_write::<LOG>(cpu, rd, r);
                            }
                        }
                        Muli => {
                            cost += 3;
                            if cpu.isa.edm.overflow && (a as i32).checked_mul(imm as i32).is_none()
                            {
                                return Some(cpu.detect(Detection::Overflow));
                            }
                            let r = a.wrapping_mul(simm);
                            cpu.isa.set_zn(r);
                            log_reg_write::<LOG>(cpu, rd, r);
                        }
                        _ => unreachable!(),
                    }
                    if LOG {
                        cpu.log.cell_writes.push(FLAGS_CELL);
                    }
                }
                Andi | Ori | Xori | Shli | Shri => {
                    let a = log_reg_read::<LOG>(cpu, rs1);
                    let r = match op {
                        Andi => a & zimm,
                        Ori => a | zimm,
                        Xori => a ^ zimm,
                        Shli => a.wrapping_shl(zimm & 31),
                        Shri => a.wrapping_shr(zimm & 31),
                        _ => unreachable!(),
                    };
                    cpu.isa.set_zn(r);
                    if LOG {
                        cpu.log.cell_writes.push(FLAGS_CELL);
                    }
                    log_reg_write::<LOG>(cpu, rd, r);
                }
                Ldi => {
                    log_reg_write::<LOG>(cpu, rd, simm);
                }
                Lui => {
                    log_reg_write::<LOG>(cpu, rd, zimm << 16);
                }
                Ld => {
                    let base = log_reg_read::<LOG>(cpu, rs1);
                    let addr = base.wrapping_add(simm);
                    let v = stop_on!(data_read::<LOG, WATCH>(cpu, addr));
                    log_reg_write::<LOG>(cpu, rd, v);
                    cost += 1;
                }
                St => {
                    let base = log_reg_read::<LOG>(cpu, rs1);
                    let addr = base.wrapping_add(simm);
                    let v = log_reg_read::<LOG>(cpu, rd);
                    stop_on!(data_write::<LOG, WATCH>(cpu, addr, v));
                    cost += 1;
                }
                Br | Beq | Bne | Blt | Bge | Bgt | Ble => {
                    let z = cpu.isa.flags & FLAG_Z != 0;
                    let n = cpu.isa.flags & FLAG_N != 0;
                    let v = cpu.isa.flags & FLAG_V != 0;
                    let taken = match op {
                        Br => true,
                        Beq => z,
                        Bne => !z,
                        Blt => n != v,
                        Bge => n == v,
                        Bgt => !z && n == v,
                        Ble => z || n != v,
                        _ => unreachable!(),
                    };
                    if LOG && op != Br {
                        cpu.log.cell_reads.push(FLAGS_CELL);
                    }
                    if taken {
                        let target = cpu.pc.wrapping_add(simm);
                        stop_on!(jump::<WATCH>(cpu, target, false));
                        pc_set = true;
                    }
                }
                Call => {
                    log_reg_write::<LOG>(cpu, Reg::LR, next_pc);
                    stop_on!(jump::<WATCH>(cpu, zimm, true));
                    pc_set = true;
                }
                In => {
                    let v = cpu.in_ports[(zimm as usize) % PORT_COUNT];
                    log_reg_write::<LOG>(cpu, rd, v);
                }
                Out => {
                    let v = log_reg_read::<LOG>(cpu, rs1);
                    cpu.out_ports[(zimm as usize) % PORT_COUNT] = v;
                }
                Sync => {
                    cpu.iterations += 1;
                    cpu.pc = next_pc;
                    cpu.cycles += cost;
                    cpu.on_cycles::<WATCH>(cost);
                    return Some(StopReason::Sync {
                        tag: imm as u16,
                        iteration: cpu.iterations,
                    });
                }
                Trap => {
                    return Some(cpu.detect(Detection::Assertion(imm as u16)));
                }
                _ => unreachable!("register opcode in I form"),
            }
        }
    }

    if !pc_set {
        cpu.pc = next_pc;
    }
    cpu.cycles += cost;
    cpu.on_cycles::<WATCH>(cost);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use scanchain::{AccessLog, BitVec, DebugUnit, ScanTarget};

    fn run_asm(src: &str) -> (Cpu, StopReason) {
        let image = assemble(src).expect("assembly");
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        let stop = cpu.run(1_000_000);
        (cpu, stop)
    }

    /// What every scan chain of `cpu` captures.
    fn chains(cpu: &Cpu) -> Vec<BitVec> {
        cpu.chain_names()
            .iter()
            .map(|chain| cpu.capture_chain(chain).unwrap())
            .collect()
    }

    #[test]
    fn decode_cache_misses_on_a_changed_word_and_never_caches_a_failure() {
        let mut cache = DecodeCache::new(0, 0u32);
        let mut calls = 0;
        let mut decode = |addr: u32, word: u32| {
            cache.decode(addr, word, |w| {
                calls += 1;
                if w == 0xBAD {
                    Err(())
                } else {
                    Ok(w + 1)
                }
            })
        };
        assert_eq!(decode(5, 7), Ok(8));
        assert_eq!(decode(5, 7), Ok(8));
        // The same address with a changed word misses and refills.
        assert_eq!(decode(5, 9), Ok(10));
        assert_eq!(decode(5 + DECODE_SLOTS as u32, 9), Ok(10));
        // An undecodable word fails each time it is fetched.
        assert_eq!(decode(6, 0xBAD), Err(()));
        assert_eq!(decode(6, 0xBAD), Err(()));
        assert_eq!(calls, 4);
    }

    #[test]
    fn arithmetic_and_halt() {
        let (cpu, stop) = run_asm(
            r"
            ldi r1, 6
            ldi r2, 7
            mul r3, r1, r2
            halt
        ",
        );
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(3)), 42);
        assert_eq!(cpu.instructions(), 4);
    }

    #[test]
    fn loop_with_branches() {
        // Sum 1..=10 into r2.
        let (cpu, stop) = run_asm(
            r"
            ldi r1, 10
            ldi r2, 0
        loop:
            add r2, r2, r1
            subi r1, r1, 1
            cmpi r1, 0
            bgt loop
            halt
        ",
        );
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(2)), 55);
    }

    #[test]
    fn memory_load_store() {
        let (cpu, stop) = run_asm(
            r"
            ldi r1, 123
            st  r0, r1, 200
            ld  r2, r0, 200
            halt
        ",
        );
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(2)), 123);
        assert_eq!(cpu.memory().read_raw(200).unwrap(), 123);
    }

    #[test]
    fn call_and_ret() {
        let (cpu, stop) = run_asm(
            r"
            ldi r1, 5
            call double
            halt
        double:
            add r1, r1, r1
            ret
        ",
        );
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(1)), 10);
    }

    #[test]
    fn push_pop_stack() {
        let (cpu, stop) = run_asm(
            r"
            ldi r1, 11
            ldi r2, 22
            push r1
            push r2
            pop r3
            pop r4
            halt
        ",
        );
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(3)), 22);
        assert_eq!(cpu.reg(Reg::new(4)), 11);
    }

    #[test]
    fn io_ports_roundtrip() {
        let image = assemble(
            r"
            in  r1, 0
            addi r1, r1, 1
            out 2, r1
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        cpu.set_in_port(0, 41);
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.out_port(2), 42);
    }

    #[test]
    fn sync_reports_iterations() {
        let image = assemble(
            r"
        loop:
            sync 7
            br loop
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        assert_eq!(
            cpu.run(100),
            StopReason::Sync {
                tag: 7,
                iteration: 1
            }
        );
        assert_eq!(
            cpu.run(100),
            StopReason::Sync {
                tag: 7,
                iteration: 2
            }
        );
        assert_eq!(cpu.iterations(), 2);
    }

    #[test]
    fn trap_raises_assertion() {
        let (_, stop) = run_asm("trap 9");
        assert_eq!(stop, StopReason::Detected(Detection::Assertion(9)));
    }

    #[test]
    fn divide_by_zero_detected() {
        let (_, stop) = run_asm(
            r"
            ldi r1, 4
            ldi r2, 0
            div r3, r1, r2
            halt
        ",
        );
        assert_eq!(stop, StopReason::Detected(Detection::DivideByZero));
    }

    #[test]
    fn overflow_detected_and_maskable() {
        let src = r"
            lui r1, 0x7FFF
            ori r1, r1, 0xFFFF
            addi r1, r1, 1
            halt
        ";
        let (_, stop) = run_asm(src);
        assert_eq!(stop, StopReason::Detected(Detection::Overflow));

        let image = assemble(src).unwrap();
        let mut cfg = CpuConfig::default();
        cfg.edm.overflow = false;
        let mut cpu = Cpu::new(cfg);
        cpu.load_image(&image).unwrap();
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(1)), 0x8000_0000);
    }

    #[test]
    fn store_to_code_is_access_violation() {
        let (_, stop) = run_asm(
            r"
            ldi r1, 1
            st  r0, r1, 0
            halt
        ",
        );
        assert_eq!(stop, StopReason::Detected(Detection::AccessViolation));
    }

    #[test]
    fn wild_jump_is_control_flow_error() {
        let (_, stop) = run_asm(
            r"
            ldi r1, 30000
            jr r1
            halt
        ",
        );
        assert_eq!(stop, StopReason::Detected(Detection::ControlFlow));
    }

    #[test]
    fn illegal_opcode_detected() {
        let image = assemble("halt").unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        // Overwrite the halt with an unassigned opcode; widen the code
        // segment so control-flow checking does not fire first.
        cpu.memory_mut().write_raw(0, 0xEE00_0000).unwrap();
        assert_eq!(cpu.run(10), StopReason::Detected(Detection::IllegalOpcode));
    }

    #[test]
    fn watchdog_times_out_infinite_loop() {
        let image = assemble("loop: br loop").unwrap();
        let cfg = CpuConfig {
            watchdog_cycles: Some(500),
            ..CpuConfig::default()
        };
        let mut cpu = Cpu::new(cfg);
        cpu.load_image(&image).unwrap();
        assert_eq!(cpu.run(u64::MAX), StopReason::Timeout);
    }

    #[test]
    fn instr_limit_stops_run() {
        let image = assemble("loop: br loop").unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        assert_eq!(cpu.run(10), StopReason::InstrLimit);
    }

    #[test]
    fn pc_breakpoint_halts_before_execution() {
        use scanchain::DebugCondition;
        let image = assemble(
            r"
            ldi r1, 1
            ldi r2, 2
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        cpu.debug_unit_mut().arm(DebugCondition::PcEquals(1));
        match cpu.run(100) {
            StopReason::DebugEvent(ev) => {
                assert_eq!(ev.condition, DebugCondition::PcEquals(1));
            }
            other => panic!("expected debug event, got {other:?}"),
        }
        // r2 not yet written.
        assert_eq!(cpu.reg(Reg::new(2)), 0);
        // Resume after clearing the breakpoint.
        cpu.debug_unit_mut().disarm_all();
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(2)), 2);
    }

    #[test]
    fn reset_preserves_memory_but_clears_state() {
        let image = assemble(
            r"
            ldi r1, 5
            st  r0, r1, 100
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        cpu.run(100);
        cpu.reset();
        assert_eq!(cpu.reg(Reg::new(1)), 0);
        assert_eq!(cpu.pc(), 0);
        assert!(!cpu.is_halted());
        assert_eq!(cpu.memory().read_raw(100).unwrap(), 5);
        // Re-runs identically after reset.
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(1)), 5);
    }

    #[test]
    fn reset_restores_configured_edm_mask() {
        // A fault injected into the PSW scan cell (here: everything off)
        // must not survive the next experiment's reset, or it would
        // contaminate the rest of the campaign and the golden run.
        let mut cpu = Cpu::new(CpuConfig::default());
        let configured = cpu.edm();
        cpu.set_edm(crate::edm::EdmSet::all_off());
        cpu.reset();
        assert_eq!(cpu.edm(), configured);
    }

    #[test]
    fn step_logged_records_accesses() {
        let image = assemble(
            r"
            ldi r1, 3
            st  r0, r1, 50
            ld  r2, r0, 50
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        let mut log = AccessLog::default();
        // Registers are logged as their cells in the internal chain.
        let layout = cpu.chain_layout(crate::scan::INTERNAL).unwrap().clone();
        let cell = |name: &str| layout.cells().iter().position(|c| c.name == name).unwrap();

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.cell_writes, vec![cell("R1")]);

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.mem_writes, vec![50]);
        assert!(log.cell_reads.contains(&cell("R1")));

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.mem_reads, vec![50]);
        assert_eq!(log.cell_writes, vec![cell("R2")]);
    }

    #[test]
    fn state_vector_changes_with_execution() {
        let image = assemble("ldi r1, 9\nhalt").unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        let before = chains(&cpu);
        cpu.run(10);
        let after = chains(&cpu);
        assert_ne!(before, after);
        let internal = cpu.chain_layout(crate::scan::INTERNAL).unwrap();
        assert_eq!(internal.read_cell(&after[0], "R1").unwrap(), 9);
        assert_eq!(
            before.iter().map(BitVec::len).collect::<Vec<_>>(),
            after.iter().map(BitVec::len).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rejoin_adopts_the_run_end_and_keeps_lines_the_run_leaves_alone() {
        // A loop that keeps reloading one data word (D-cache line 12).
        let image = assemble(
            r"
            ldi r1, 50
        loop:
            ld  r2, r0, 300
            subi r1, r1, 1
            cmpi r1, 0
            bgt loop
            halt
        ",
        )
        .unwrap();
        let mut run = Cpu::new(CpuConfig::default());
        run.load_image(&image).unwrap();
        run.run(20);
        let checkpoint = run.clone();
        assert_eq!(run.run(1_000), StopReason::Halted);
        let end = run;

        // The checkpoint itself rejoins and ends exactly as the run does.
        let mut live = checkpoint.clone();
        assert!(live.rejoin(&checkpoint, &end));
        assert_eq!(chains(&live), chains(&end));
        assert_eq!(
            (live.cycles, live.isa.dcache, live.isa.icache),
            (end.cycles, end.dcache.clone(), end.icache.clone())
        );

        // A line the rest of the run never uses keeps the live contents;
        // the counters move by the live offset.
        let mut live = checkpoint.clone();
        live.dcache.line_mut(3).data ^= 1;
        live.cycles += 100;
        live.debug.on_cycles(5);
        let kept = *live.dcache.line(3);
        assert!(live.rejoin(&checkpoint, &end));
        assert_eq!(*live.dcache.line(3), kept);
        assert_ne!(kept, *end.dcache.line(3));
        assert_eq!(live.cycles, end.cycles + 100);
        let ccount = |cpu: &Cpu| {
            let bits = cpu.debug.capture().unwrap();
            DebugUnit::chain_layout()
                .read_cell(&bits, "CCOUNT")
                .unwrap()
        };
        assert_eq!(ccount(&live), ccount(&end) + 5);
        assert_eq!(
            live.debug.instruction_count(),
            end.debug.instruction_count()
        );

        // A used line, a register, a memory word or a cycle count the
        // watchdog would reach: refused, and nothing changes.
        let refused: [fn(&mut Cpu); 4] = [
            |cpu| cpu.dcache.line_mut(12).data ^= 1,
            |cpu| cpu.regs[2] ^= 1,
            |cpu| cpu.mem.write_raw(400, 7).unwrap(),
            |cpu| cpu.cycles = 2_000_000 - 10,
        ];
        for change in refused {
            let mut live = checkpoint.clone();
            change(&mut live);
            let before = (chains(&live), live.cycles, live.dcache.clone());
            assert!(!live.rejoin(&checkpoint, &end));
            assert_eq!((chains(&live), live.cycles, live.dcache.clone()), before);
        }
    }

    #[test]
    fn deterministic_execution() {
        let src = r"
            ldi r1, 100
            ldi r2, 0
        loop:
            add r2, r2, r1
            subi r1, r1, 1
            cmpi r1, 0
            bgt loop
            halt
        ";
        let (cpu1, _) = run_asm(src);
        let (cpu2, _) = run_asm(src);
        assert_eq!(chains(&cpu1), chains(&cpu2));
        assert_eq!(cpu1.cycles(), cpu2.cycles());
    }
}
