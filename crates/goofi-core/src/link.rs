//! Unreliable-link resilience: fault decorator and verified-I/O decorator.
//!
//! The paper's test card assumes a perfect host↔target link; real campaigns
//! over JTAG cables, lab networks, or remote simulators see corrupted
//! readbacks, lost transactions, and stalled shifts. This module supplies
//! both sides of that problem as *stackable decorators* over any
//! [`TargetAccess`]:
//!
//! - [`UnreliableTarget`] injects transport faults drawn from a seeded
//!   [`scanchain::LinkFaultModel`] into the data-path operations (scan-chain
//!   reads/writes, memory reads/writes, the bit-flip primitive). Run-control
//!   operations (`run_workload`, breakpoints, reset) are never faulted: the
//!   model targets the *transport*, not the target system.
//! - [`VerifiedTarget`] recovers from such faults: reads are repeated until
//!   two consecutive captures agree, writes are read back and compared, and
//!   every failed round re-initialises the test card
//!   ([`TargetAccess::init_test_card`]) before retrying. After
//!   [`VerifyConfig::max_attempts`] rounds the operation escalates to
//!   [`GoofiError::LinkFault`], which the campaign policy layer treats like
//!   any other experiment failure.
//!
//! Stack them as `VerifiedTarget::new(UnreliableTarget::new(target, cfg))`
//! to test the recovery layer, or wrap a real target with just
//! [`VerifiedTarget`] in deployments with a flaky physical link. Because
//! both the fault stream and the retry discipline are deterministic, a
//! campaign run twice with the same seeds produces bit-for-bit identical
//! results — the property the end-to-end tests assert.

use crate::monitor::ProgressMonitor;
use crate::target::TargetAccess;
use crate::telemetry::Metric;
use crate::{pass_through, GoofiError, Result};
use scanchain::{BitVec, LinkFault, LinkFaultConfig, LinkFaultCounts, LinkFaultModel};
use std::borrow::Cow;

/// A [`TargetAccess`] whose transport misbehaves per a [`LinkFaultModel`].
///
/// Each data-path operation asks the model for the fate of one transaction
/// ([`LinkFaultModel::next_transaction`]); corrupted transactions flip a
/// single bit in flight, dropped transactions silently do nothing (reads
/// return stale zeros), duplicated transactions are applied twice, and
/// stall/disconnect faults fail the operation with the corresponding
/// [`ScanError`](scanchain::ScanError). The host-side recovery path —
/// [`TargetAccess::init_test_card`] and all run-control operations — is
/// deliberately never faulted, so a [`VerifiedTarget`] above this wrapper
/// can always re-establish the link.
#[derive(Debug)]
pub struct UnreliableTarget<T> {
    inner: T,
    model: LinkFaultModel,
}

impl<T: TargetAccess> UnreliableTarget<T> {
    /// Wraps `inner` with a fault model built from `config`.
    pub fn new(inner: T, config: LinkFaultConfig) -> Self {
        UnreliableTarget {
            inner,
            model: LinkFaultModel::new(config),
        }
    }

    /// The fault model (configuration, transaction count, event counters).
    pub fn model(&self) -> &LinkFaultModel {
        &self.model
    }

    /// Events injected so far, by kind.
    pub fn counts(&self) -> LinkFaultCounts {
        self.model.counts()
    }

    /// Shared access to the wrapped target.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Flips one random bit of one random word, as a corrupting link does.
    fn corrupt(&mut self, words: &mut [u32]) {
        if !words.is_empty() {
            let word = self.model.random_index(words.len());
            let bit = self.model.random_index(32);
            words[word] ^= 1u32 << bit;
        }
    }
}

/// How many times a transaction the link lets through reaches the device:
/// a dropped one never, a duplicated one twice.
fn deliveries(fault: Option<LinkFault>) -> usize {
    match fault {
        Some(LinkFault::Drop) => 0,
        Some(LinkFault::Duplicate) => 2,
        _ => 1,
    }
}

impl<T: TargetAccess> TargetAccess for UnreliableTarget<T> {
    pass_through! { inner:
        target_name, load_workload, reset_target, memory_size, set_breakpoint,
        clear_breakpoints, run_workload, step_instruction, chain_layouts, write_input_ports,
        read_output_ports, instructions_executed, cycles_executed, iterations_completed,
        step_traced, power_cycle, snapshot, restore, supports_snapshot, prefix_restore_safe,
        // The recovery path: never faulted, so the link can always be restored.
        init_test_card,
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        let fault = self.model.next_transaction(|| "write memory".into())?;
        let mut words = Cow::Borrowed(data);
        if fault == Some(LinkFault::CorruptBit) {
            self.corrupt(words.to_mut());
        }
        for _ in 0..deliveries(fault) {
            self.inner.write_memory(addr, &words)?;
        }
        Ok(())
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        let mut words = self.inner.read_memory(addr, len)?;
        match self.model.next_transaction(|| "read memory".into())? {
            Some(LinkFault::CorruptBit) => self.corrupt(&mut words),
            // A dropped read returns a stale all-zero buffer.
            Some(LinkFault::Drop) => words.fill(0),
            _ => {}
        }
        Ok(words)
    }

    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()> {
        let fault = self.model.next_transaction(|| "flip memory bit".into())?;
        // A corrupted command flips a *different* bit of the same word; a
        // duplicated one flips it back, as wrong as a drop.
        let bit = match fault {
            Some(LinkFault::CorruptBit) => {
                ((u32::from(bit) + 1 + self.model.random_index(31) as u32) % 32) as u8
            }
            _ => bit,
        };
        for _ in 0..deliveries(fault) {
            self.inner.flip_memory_bit(addr, bit)?;
        }
        Ok(())
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<BitVec> {
        let image = self.inner.read_scan_chain(chain)?;
        Ok(self.model.disturb_read(image, &format!("read `{chain}`"))?)
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> Result<()> {
        let fault = self.model.next_transaction(|| format!("write `{chain}`"))?;
        let mut bits = Cow::Borrowed(bits);
        if fault == Some(LinkFault::CorruptBit) && !bits.is_empty() {
            let bit = self.model.random_index(bits.len());
            bits.to_mut().flip(bit);
        }
        for _ in 0..deliveries(fault) {
            self.inner.write_scan_chain(chain, &bits)?;
        }
        Ok(())
    }
}

/// Retry budget of a [`VerifiedTarget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Maximum verification rounds per operation. Each round performs the
    /// operation and its verification readback; a failed round
    /// re-initialises the test card before the next. Must be at least 1.
    pub max_attempts: u32,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig { max_attempts: 3 }
    }
}

/// Running totals of link events seen by a [`VerifiedTarget`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkEventStats {
    /// Operations that needed at least one retry but ultimately succeeded.
    pub recovered: u64,
    /// Operations that exhausted the retry budget and escalated to
    /// [`GoofiError::LinkFault`].
    pub unrecovered: u64,
}

/// A [`TargetAccess`] decorator that makes data-path I/O trustworthy over
/// an unreliable link.
///
/// - **Reads** (`read_scan_chain`, `read_memory`, `read_output_ports`) are
///   repeated until two consecutive captures agree, so a single corrupted
///   or stale readback cannot masquerade as target state.
/// - **Writes** (`write_scan_chain`, `write_memory`) are read back and
///   compared against what was written (for scan chains, only the writable
///   cells of the layout — read-only capture cells legitimately differ).
/// - **`flip_memory_bit`** is re-expressed as a verified
///   read-modify-write, so a dropped or mis-addressed flip command is
///   detected and corrected.
///
/// A failed round calls [`TargetAccess::init_test_card`] to re-establish
/// the link before retrying. Once [`VerifyConfig::max_attempts`] rounds are
/// spent the operation fails with [`GoofiError::LinkFault`]; recovered and
/// unrecovered events are counted locally and, when a monitor is attached
/// via [`VerifiedTarget::with_monitor`], on the campaign's
/// [`ProgressMonitor`].
#[derive(Debug)]
pub struct VerifiedTarget<T> {
    inner: T,
    config: VerifyConfig,
    monitor: Option<ProgressMonitor>,
    stats: LinkEventStats,
}

impl<T: TargetAccess> VerifiedTarget<T> {
    /// Wraps `inner` with the default retry budget.
    pub fn new(inner: T) -> Self {
        Self::with_config(inner, VerifyConfig::default())
    }

    /// Wraps `inner` with an explicit retry budget.
    pub fn with_config(inner: T, config: VerifyConfig) -> Self {
        VerifiedTarget {
            inner,
            config: VerifyConfig {
                max_attempts: config.max_attempts.max(1),
            },
            monitor: None,
            stats: LinkEventStats::default(),
        }
    }

    /// Attaches a campaign monitor so recovered/unrecovered link events
    /// show up in the progress window.
    pub fn with_monitor(mut self, monitor: ProgressMonitor) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Shared access to the wrapped target.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Consumes the wrapper, returning the target.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Link events seen so far.
    pub fn stats(&self) -> LinkEventStats {
        self.stats
    }

    fn note_recovered(&mut self, operation: &str) {
        self.stats.recovered += 1;
        if let Some(m) = &self.monitor {
            m.count(Metric::LinkRecovered, 1);
            m.telemetry().event("link-recovered", operation);
        }
    }

    fn fail(&mut self, operation: &str, attempts: u32, detail: String) -> GoofiError {
        self.stats.unrecovered += 1;
        if let Some(m) = &self.monitor {
            m.count(Metric::LinkUnrecovered, 1);
            m.telemetry().event(
                "link-unrecovered",
                &format!("{operation} after {attempts} attempts"),
            );
        }
        GoofiError::LinkFault {
            operation: operation.to_string(),
            attempts,
            detail,
        }
    }

    /// Re-establishes the link between rounds. A failing re-init is not
    /// itself fatal — the next round's operation reports the real error.
    fn recover(&mut self) {
        let _ = self.inner.init_test_card();
    }

    /// Runs `read` until two consecutive captures agree.
    fn read_agreeing<V: PartialEq + Clone>(
        &mut self,
        operation: &str,
        mut read: impl FnMut(&mut T) -> Result<V>,
    ) -> Result<V> {
        let mut detail = String::from("no attempt completed");
        for attempt in 1..=self.config.max_attempts {
            let round = (|| {
                let first = read(&mut self.inner)?;
                let second = read(&mut self.inner)?;
                Ok::<_, GoofiError>((first, second))
            })();
            match round {
                Ok((first, second)) if first == second => {
                    if attempt > 1 {
                        self.note_recovered(operation);
                    }
                    return Ok(first);
                }
                Ok(_) => detail = "consecutive captures disagree".to_string(),
                Err(e) => detail = e.to_string(),
            }
            self.recover();
        }
        Err(self.fail(operation, self.config.max_attempts, detail))
    }

    /// Runs `write` then `check`; retries with link recovery until the
    /// verification passes or the budget is spent.
    fn write_verified(
        &mut self,
        operation: &str,
        mut write: impl FnMut(&mut T) -> Result<()>,
        mut check: impl FnMut(&mut T) -> Result<std::result::Result<(), String>>,
    ) -> Result<()> {
        let mut detail = String::from("no attempt completed");
        for attempt in 1..=self.config.max_attempts {
            let round = (|| {
                write(&mut self.inner)?;
                check(&mut self.inner)
            })();
            match round {
                Ok(Ok(())) => {
                    if attempt > 1 {
                        self.note_recovered(operation);
                    }
                    return Ok(());
                }
                Ok(Err(mismatch)) => detail = mismatch,
                Err(e) => detail = e.to_string(),
            }
            self.recover();
        }
        Err(self.fail(operation, self.config.max_attempts, detail))
    }
}

impl<T: TargetAccess> TargetAccess for VerifiedTarget<T> {
    pass_through! { inner:
        target_name, init_test_card, load_workload, reset_target, memory_size, set_breakpoint,
        clear_breakpoints, run_workload, step_instruction, chain_layouts, instructions_executed,
        cycles_executed, iterations_completed, step_traced, power_cycle, snapshot, restore,
        supports_snapshot, prefix_restore_safe,
        // The trait has no readback of input ports to verify a write against.
        write_input_ports,
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        if data.is_empty() {
            return self.inner.write_memory(addr, data);
        }
        let expected = data.to_vec();
        let len = expected.len();
        self.write_verified(
            "write_memory",
            |t| t.write_memory(addr, &expected),
            |t| {
                let back = t.read_memory(addr, len)?;
                Ok(if back == expected {
                    Ok(())
                } else {
                    Err("readback differs from written data".to_string())
                })
            },
        )
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        if len == 0 {
            return self.inner.read_memory(addr, len);
        }
        self.read_agreeing("read_memory", |t| t.read_memory(addr, len))
    }

    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()> {
        if bit >= 32 {
            // Let the target report its own out-of-range error.
            return self.inner.flip_memory_bit(addr, bit);
        }
        // Verified read-modify-write: a dropped, duplicated or mis-addressed
        // flip command over the link cannot silently change the injected
        // fault.
        let before = self.read_memory(addr, 1)?[0];
        let expected = before ^ (1u32 << u32::from(bit));
        self.write_memory(addr, &[expected])
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<BitVec> {
        self.read_agreeing(&format!("read_scan_chain({chain})"), |t| {
            t.read_scan_chain(chain)
        })
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> Result<()> {
        let layout = self
            .inner
            .chain_layouts()
            .into_iter()
            .find(|l| l.name() == chain);
        let written = bits.clone();
        self.write_verified(
            &format!("write_scan_chain({chain})"),
            |t| t.write_scan_chain(chain, &written),
            |t| {
                let back = t.read_scan_chain(chain)?;
                // Only writable cells must survive the round trip; read-only
                // capture cells legitimately differ from the shifted image.
                // Without a layout the whole image must match.
                let mismatch = match &layout {
                    Some(layout) => {
                        layout
                            .writable_cells()
                            .flat_map(|c| c.bit_range())
                            .find(|&i| {
                                i < back.len() && i < written.len() && back.get(i) != written.get(i)
                            })
                    }
                    None => {
                        (0..back.len().min(written.len())).find(|&i| back.get(i) != written.get(i))
                    }
                };
                Ok(match mismatch {
                    None => Ok(()),
                    Some(i) => Err(format!("readback differs at chain bit {i}")),
                })
            },
        )
    }

    fn read_output_ports(&mut self) -> Result<Vec<u32>> {
        self.read_agreeing("read_output_ports", |t| t.read_output_ports())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::SimTarget;
    use scanchain::ScanError;

    /// [`SimTarget`] counting the card initialisations a recovering
    /// link makes.
    struct CountingInits {
        sim: SimTarget,
        inits: u32,
    }

    impl TargetAccess for CountingInits {
        pass_through! { sim:
            target_name, load_workload, reset_target, write_memory, read_memory,
            flip_memory_bit, memory_size, set_breakpoint, clear_breakpoints, run_workload,
            step_instruction, chain_layouts, read_scan_chain, write_scan_chain,
            write_input_ports, read_output_ports, instructions_executed, cycles_executed,
            iterations_completed, step_traced, power_cycle, snapshot, restore,
            supports_snapshot, prefix_restore_safe,
        }

        fn init_test_card(&mut self) -> Result<()> {
            self.inits += 1;
            self.sim.init_test_card()
        }
    }

    fn sim() -> CountingInits {
        CountingInits {
            sim: SimTarget::new(),
            inits: 0,
        }
    }

    fn lossy(rate_cfg: LinkFaultConfig) -> UnreliableTarget<CountingInits> {
        UnreliableTarget::new(sim(), rate_cfg)
    }

    #[test]
    fn unreliable_target_passes_through_when_inactive() {
        let mut t = lossy(LinkFaultConfig::default());
        t.write_memory(3, &[0xDEAD_BEEF]).unwrap();
        assert_eq!(t.read_memory(3, 1).unwrap(), vec![0xDEAD_BEEF]);
        t.flip_memory_bit(3, 0).unwrap();
        assert_eq!(t.read_memory(3, 1).unwrap(), vec![0xDEAD_BEEE]);
        assert_eq!(t.counts().total(), 0);
    }

    #[test]
    fn unreliable_target_drops_and_corrupts_deterministically() {
        let run = |seed| {
            let mut t = lossy(LinkFaultConfig {
                seed,
                corrupt_rate: 0.3,
                drop_rate: 0.3,
                ..Default::default()
            });
            let mut log = Vec::new();
            for i in 0..200u32 {
                t.write_memory(0, &[i]).unwrap();
                log.push(t.read_memory(0, 1).unwrap()[0]);
            }
            (log, t.counts())
        };
        let (a, ca) = run(5);
        let (b, cb) = run(5);
        assert_eq!(a, b, "same seed, same disturbed history");
        assert_eq!(ca, cb);
        assert!(ca.total() > 0, "rates this high must fire");
        let (c, _) = run(6);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn unreliable_target_maps_stall_and_disconnect_to_errors() {
        let mut t = lossy(LinkFaultConfig {
            seed: 2,
            stall_rate: 1.0,
            ..Default::default()
        });
        assert!(matches!(
            t.read_scan_chain("internal"),
            Err(GoofiError::Scan(ScanError::ShiftStall { .. }))
        ));
        let mut t = lossy(LinkFaultConfig {
            seed: 2,
            disconnect_rate: 1.0,
            ..Default::default()
        });
        assert!(matches!(
            t.write_memory(0, &[1]),
            Err(GoofiError::Scan(ScanError::LinkDown { .. }))
        ));
    }

    #[test]
    fn verified_target_is_transparent_on_a_clean_link() {
        let mut t = VerifiedTarget::new(sim());
        t.write_memory(1, &[7, 8]).unwrap();
        assert_eq!(t.read_memory(1, 2).unwrap(), vec![7, 8]);
        t.flip_memory_bit(1, 1).unwrap();
        assert_eq!(t.read_memory(1, 1).unwrap(), vec![5]);
        let mut bits = BitVec::zeros(12);
        t.chain_layouts()[0]
            .write_cell(&mut bits, "A", 0xA5)
            .unwrap();
        t.write_scan_chain("internal", &bits).unwrap();
        let back = t.read_scan_chain("internal").unwrap();
        assert_eq!(t.chain_layouts()[0].read_cell(&back, "A").unwrap(), 0xA5);
        assert_eq!(t.stats(), LinkEventStats::default());
    }

    #[test]
    fn verified_target_recovers_from_a_lossy_link() {
        let monitor = ProgressMonitor::new(0);
        let inner = lossy(LinkFaultConfig {
            seed: 11,
            corrupt_rate: 0.05,
            drop_rate: 0.05,
            stall_rate: 0.02,
            disconnect_rate: 0.02,
            ..Default::default()
        });
        let mut t = VerifiedTarget::with_config(inner, VerifyConfig { max_attempts: 10 })
            .with_monitor(monitor.clone());
        for i in 0..100u32 {
            t.write_memory(i % 64, &[i.wrapping_mul(2654435761)])
                .unwrap();
            assert_eq!(
                t.read_memory(i % 64, 1).unwrap(),
                vec![i.wrapping_mul(2654435761)],
                "verified read must return the written value"
            );
        }
        let stats = t.stats();
        assert!(stats.recovered > 0, "rates this high must need recovery");
        assert_eq!(stats.unrecovered, 0);
        assert_eq!(monitor.snapshot().link_recovered as u64, stats.recovered);
        assert!(t.inner().inner().inits > 0, "recovery re-inits the card");
    }

    #[test]
    fn verified_flips_survive_dropped_commands() {
        // Note the moderate drop rate: two *consecutive* dropped reads both
        // return the same stale zeros and defeat double-read agreement —
        // the known residual risk of the scheme, quadratic in the drop
        // rate. The seeded stream keeps this test deterministic.
        let inner = lossy(LinkFaultConfig {
            seed: 3,
            drop_rate: 0.1,
            ..Default::default()
        });
        let mut t = VerifiedTarget::with_config(inner, VerifyConfig { max_attempts: 12 });
        for bit in 0..16u8 {
            t.flip_memory_bit(9, bit).unwrap();
        }
        assert_eq!(t.read_memory(9, 1).unwrap(), vec![0x0000_FFFF]);
    }

    #[test]
    fn verified_target_escalates_when_budget_is_spent() {
        let monitor = ProgressMonitor::new(0);
        let inner = lossy(LinkFaultConfig {
            seed: 4,
            disconnect_rate: 1.0,
            ..Default::default()
        });
        let mut t = VerifiedTarget::with_config(inner, VerifyConfig { max_attempts: 2 })
            .with_monitor(monitor.clone());
        let err = t.read_memory(0, 1).unwrap_err();
        match err {
            GoofiError::LinkFault {
                operation,
                attempts,
                ..
            } => {
                assert_eq!(operation, "read_memory");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected LinkFault, got {other}"),
        }
        assert_eq!(t.stats().unrecovered, 1);
        assert_eq!(monitor.snapshot().link_unrecovered, 1);
    }

    #[test]
    fn verified_scan_write_checks_only_writable_cells() {
        // The read-only S cell never takes shifted values; a verified
        // write must not loop forever trying to make it match.
        let mut t = VerifiedTarget::new(sim());
        let mut bits = BitVec::ones(12); // asks S to become 0xF too
        t.chain_layouts()[0]
            .write_cell(&mut bits, "A", 0x3C)
            .unwrap();
        t.write_scan_chain("internal", &bits).unwrap();
        let back = t.read_scan_chain("internal").unwrap();
        let layout = &t.chain_layouts()[0];
        assert_eq!(layout.read_cell(&back, "A").unwrap(), 0x3C);
        assert_eq!(
            layout.read_cell(&back, "S").unwrap(),
            0,
            "RO cell untouched"
        );
        assert_eq!(t.stats(), LinkEventStats::default());
    }
}
