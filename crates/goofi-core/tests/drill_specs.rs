//! The drill-spec grammar and the schedules seeded drills replay.
//!
//! Four self-injection drills read a `key=value` spec through
//! `scanchain::plan`: `--link-faults`, `--wedge`, `--net-chaos` and
//! `--chaos`. The pinned tests hold each drill's decision sequence for
//! fixed specs to an FNV-1a digest of its `Debug` rendering, so a change to
//! the grammar, the seeded draws or the draw order shows up as a changed
//! schedule. The table test holds every spec literal the repository uses
//! (tests, README, DESIGN.md, the CLI usage text, the CLI suites) to the
//! configuration it decodes to.

use goofi_core::service::chaos::ChaosConfig;
use goofi_core::service::net::{
    encode_frame, FaultInjector, FaultWriter, FrameSink, NetFaultConfig, NetFaultKind, OpClass,
};
use goofi_core::vfs::{atomic_write, FaultFs, FaultKind, FaultPlan, Vfs};
use proptest::prelude::*;
use scanchain::{plan, LinkFaultConfig, LinkFaultModel, RecoveryDepth, WedgeConfig, WedgeModel};
use std::io;
use std::path::{Path, PathBuf};

/// FNV-1a over the text.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn link_fault_schedule_is_pinned() {
    let specs = [
        "seed=7,corrupt=0.05,drop=0.02,dup=0.02,stall=0.01,disc=0.01",
        "seed=42,corrupt=0.3,drop=0.1,stall=0.05,skip=100,max=25",
        "seed=3,disc=1",
    ];
    let digests: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let mut model = LinkFaultModel::new(LinkFaultConfig::decode(spec).unwrap());
            let faults: Vec<_> = (0..1_000).map(|_| model.next_fault()).collect();
            digest(&format!("{faults:?} {:?}", model.counts()))
        })
        .collect();
    assert_eq!(
        digests,
        [
            6005252528071110785,
            12203861669511821516,
            18264621470227255217
        ]
    );
}

#[test]
fn wedge_schedule_is_pinned() {
    let specs = [
        "seed=99,hang=0.05,stuck=0.05,garbage=0.05",
        "seed=3,hang=0.2,max=5,recover=reinit",
        "seed=1,garbage=0.5,recover=soft",
    ];
    let digests: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let mut model = WedgeModel::new(WedgeConfig::decode(spec).unwrap());
            let wedges: Vec<_> = (0..1_000)
                .map(|_| {
                    let wedge = model.advance();
                    if wedge.is_some() {
                        assert!(model.recover(RecoveryDepth::PowerCycle));
                    }
                    wedge
                })
                .collect();
            digest(&format!("{wedges:?} {:?}", model.counts()))
        })
        .collect();
    assert_eq!(
        digests,
        [
            9472006144812105377,
            2520772806158714009,
            5442123535989516393
        ]
    );
}

/// A fixed interleaving of the three network operation classes.
fn net_ops() -> impl Iterator<Item = OpClass> {
    (0..600).map(|i| match i % 7 {
        0 => OpClass::Connect,
        1 | 4 => OpClass::Accept,
        _ => OpClass::Send,
    })
}

/// Records every frame write of a [`FaultWriter`].
struct Recorder<'a>(&'a mut Vec<u8>);

impl FrameSink for Recorder<'_> {
    fn write_frame_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.extend_from_slice(bytes);
        self.0.push(b'|');
        Ok(())
    }
}

#[test]
fn net_fault_schedule_is_pinned() {
    let mut strikes = Vec::new();
    for &kind in &NetFaultKind::ALL {
        for at in [1, 2, 9, 50] {
            let injector = FaultInjector::new(NetFaultConfig::plan(at, kind, 5));
            strikes.push(net_ops().map(|op| injector.decide(op)).collect::<Vec<_>>());
        }
    }
    let mut rolls = Vec::new();
    for spec in [
        "drop=0.02,dup=0.02,reorder=0.02,corrupt=0.02,delay=0.02,seed=29,delay-ms=5",
        "drop=0.05,corrupt=0.05,seed=31",
        "partition=0.3,truncate=0.1,reset=0.05,half-open=0.01,seed=8",
    ] {
        let injector = FaultInjector::new(NetFaultConfig::decode(spec).unwrap());
        rolls.push(net_ops().map(|op| injector.decide(op)).collect::<Vec<_>>());
    }
    let mut bytes = Vec::new();
    for kind in [
        NetFaultKind::Corrupt,
        NetFaultKind::Truncate,
        NetFaultKind::Reset,
        NetFaultKind::Reorder,
    ] {
        for seed in [3, 77] {
            let injector = FaultInjector::new(NetFaultConfig::plan(2, kind, seed));
            let mut writer = FaultWriter::new(Recorder(&mut bytes), Some(injector));
            for frame in ["alpha", "a longer second frame", "gamma"] {
                let _ = writer.send_frame(&encode_frame(frame));
            }
        }
    }
    assert_eq!(
        [
            digest(&format!("{strikes:?}")),
            digest(&format!("{rolls:?}")),
            digest(&String::from_utf8_lossy(&bytes)),
        ],
        [
            16432616336267278969,
            6553006840281760343,
            10093960727990350639
        ]
    );
}

#[test]
fn chaos_kill_points_are_pinned() {
    let specs = [
        "kill-after=4,seed=9",
        "kill-after=3,seed=7,kills=2",
        "kill-after=1000,seed=123456789,mode=stall",
    ];
    let digests: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let config = ChaosConfig::decode(spec).unwrap();
            let points: Vec<u64> = (0..8)
                .flat_map(|shard| (1..4).map(move |attempt| config.kill_point(shard, attempt)))
                .collect();
            digest(&format!("{points:?}"))
        })
        .collect();
    assert_eq!(
        digests,
        [
            5582159782649433918,
            8096308225396914634,
            12599943924330810310
        ]
    );
}

fn scratch_dir(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "goofi-drill-specs-{}-{}-{name}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A journal append-and-sync sequence, an atomic database write and one
/// more append: the persistence shapes the durability suite walks.
fn fs_script(vfs: &dyn Vfs, dir: &Path) -> io::Result<()> {
    let mut journal = vfs.create(&dir.join("journal"))?;
    for i in 0..4 {
        journal.write_all(format!("entry {i} {}\n", "x".repeat(i * 7)).as_bytes())?;
        journal.sync()?;
    }
    drop(journal);
    atomic_write(vfs, &dir.join("db"), b"database image, version 1\n")?;
    let mut journal = vfs.open_append(&dir.join("journal"))?;
    journal.write_all(b"tail entry\n")?;
    journal.sync()
}

#[test]
fn fault_fs_torn_and_garbled_walk_is_pinned() {
    let counting = FaultFs::counting();
    let dir = scratch_dir("count");
    fs_script(&counting, &dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let mut survivors = Vec::new();
    for kind in [FaultKind::Torn, FaultKind::Garble] {
        for seed in [7, 99] {
            for at in 1..=counting.ops() {
                let dir = scratch_dir("walk");
                let _ = fs_script(&FaultFs::new(FaultPlan { at, kind, seed }), &dir);
                let mut files: Vec<_> = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|entry| entry.unwrap().path())
                    .collect();
                files.sort();
                for file in files {
                    let name = file.file_name().unwrap().to_string_lossy().into_owned();
                    survivors.push((at, name, std::fs::read(&file).unwrap()));
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
    assert_eq!(
        (counting.ops(), digest(&format!("{survivors:?}"))),
        (16, 2357801147097376897)
    );
}

/// Every spec literal in the repository, with the configuration it decodes
/// to (its `Debug` rendering; `None` for a rejected spec).
const SPEC_LITERALS: &[(&str, &str, &str)] = &[
    (
        "link",
        "seed=42,corrupt=0.01,drop=0.002,stall=0.001",
        "Some(LinkFaultConfig { seed: 42, corrupt_rate: 0.01, drop_rate: 0.002, duplicate_rate: 0.0, stall_rate: 0.001, disconnect_rate: 0.0, skip_ops: 0, max_events: None })",
    ),
    (
        "link",
        "seed=42,corrupt=0.01,drop=0.001,dup=0.001,stall=0.0005,disc=0.0005,skip=30,max=100",
        "Some(LinkFaultConfig { seed: 42, corrupt_rate: 0.01, drop_rate: 0.001, duplicate_rate: 0.001, stall_rate: 0.0005, disconnect_rate: 0.0005, skip_ops: 30, max_events: Some(100) })",
    ),
    (
        "link",
        "seed=42,corrupt=0.01,drop=0.001,dup=0.002,stall=0.0005,disc=0.0001,skip=30,max=100",
        "Some(LinkFaultConfig { seed: 42, corrupt_rate: 0.01, drop_rate: 0.001, duplicate_rate: 0.002, stall_rate: 0.0005, disconnect_rate: 0.0001, skip_ops: 30, max_events: Some(100) })",
    ),
    (
        "link",
        "corrupt=2.0",
        "None",
    ),
    (
        "link",
        "nope=1",
        "None",
    ),
    (
        "link",
        "corrupt",
        "None",
    ),
    (
        "link",
        "corrupt=0.9,drop=0.9",
        "None",
    ),
    (
        "link",
        "",
        "Some(LinkFaultConfig { seed: 0, corrupt_rate: 0.0, drop_rate: 0.0, duplicate_rate: 0.0, stall_rate: 0.0, disconnect_rate: 0.0, skip_ops: 0, max_events: None })",
    ),
    (
        "wedge",
        "seed=7,hang=0.01,recover=power",
        "Some(WedgeConfig { seed: 7, hang_rate: 0.01, stuck_tap_rate: 0.0, garbage_rate: 0.0, max_events: None, recovery: PowerCycle })",
    ),
    (
        "wedge",
        "seed=7,hang=0.05,recover=power",
        "Some(WedgeConfig { seed: 7, hang_rate: 0.05, stuck_tap_rate: 0.0, garbage_rate: 0.0, max_events: None, recovery: PowerCycle })",
    ),
    (
        "wedge",
        "seed=1,hang=0.05,recover=power",
        "Some(WedgeConfig { seed: 1, hang_rate: 0.05, stuck_tap_rate: 0.0, garbage_rate: 0.0, max_events: None, recovery: PowerCycle })",
    ),
    (
        "wedge",
        "hang=1.5",
        "None",
    ),
    (
        "wedge",
        "hang=0.6,stuck=0.6",
        "None",
    ),
    (
        "wedge",
        "bogus=1",
        "None",
    ),
    (
        "net",
        "drop=0.05,seed=7",
        "Some(NetFaultConfig { seed: 7, at: 0, kind: None, rates: [(Drop, 50000)], delay_ms: 25 })",
    ),
    (
        "net",
        "drop=0.05,corrupt=0.01,seed=7",
        "Some(NetFaultConfig { seed: 7, at: 0, kind: None, rates: [(Drop, 50000), (Corrupt, 10000)], delay_ms: 25 })",
    ),
    (
        "net",
        "at=12,kind=reset,seed=3",
        "Some(NetFaultConfig { seed: 3, at: 12, kind: Some(Reset), rates: [], delay_ms: 25 })",
    ),
    (
        "net",
        "at=1,kind=half-open,seed=0",
        "Some(NetFaultConfig { seed: 0, at: 1, kind: Some(HalfOpen), rates: [], delay_ms: 25 })",
    ),
    (
        "net",
        "drop=0.2,dup=0.1,corrupt=0.01,seed=9",
        "Some(NetFaultConfig { seed: 9, at: 0, kind: None, rates: [(Drop, 200000), (Dup, 100000), (Corrupt, 10000)], delay_ms: 25 })",
    ),
    (
        "net",
        "delay=1.0,seed=2,delay-ms=10",
        "Some(NetFaultConfig { seed: 2, at: 0, kind: None, rates: [(Delay, 1000000)], delay_ms: 10 })",
    ),
    (
        "net",
        "",
        "None",
    ),
    (
        "net",
        "seed=1",
        "None",
    ),
    (
        "net",
        "at=3,seed=1",
        "None",
    ),
    (
        "net",
        "kind=drop,seed=1",
        "None",
    ),
    (
        "net",
        "at=3,kind=melt,seed=1",
        "None",
    ),
    (
        "net",
        "drop=1.5,seed=1",
        "None",
    ),
    (
        "net",
        "drop=0.1,at=3,kind=dup",
        "None",
    ),
    (
        "net",
        "bogus=1,seed=2",
        "None",
    ),
    (
        "net",
        "drop=x,seed=1",
        "None",
    ),
    (
        "net",
        "drop=0.5,seed=4",
        "Some(NetFaultConfig { seed: 4, at: 0, kind: None, rates: [(Drop, 500000)], delay_ms: 25 })",
    ),
    (
        "net",
        "drop=0.5,seed=5",
        "Some(NetFaultConfig { seed: 5, at: 0, kind: None, rates: [(Drop, 500000)], delay_ms: 25 })",
    ),
    (
        "net",
        "nope",
        "None",
    ),
    (
        "net",
        "drop=0.02,dup=0.02,reorder=0.02,corrupt=0.02,delay=0.02,seed=29,delay-ms=5",
        "Some(NetFaultConfig { seed: 29, at: 0, kind: None, rates: [(Drop, 20000), (Dup, 20000), (Reorder, 20000), (Corrupt, 20000), (Delay, 20000)], delay_ms: 5 })",
    ),
    (
        "net",
        "drop=0.05,corrupt=0.05,seed=31",
        "Some(NetFaultConfig { seed: 31, at: 0, kind: None, rates: [(Drop, 50000), (Corrupt, 50000)], delay_ms: 25 })",
    ),
    (
        "net",
        "dup=0.05,corrupt=0.05,reorder=0.05,seed=43",
        "Some(NetFaultConfig { seed: 43, at: 0, kind: None, rates: [(Dup, 50000), (Corrupt, 50000), (Reorder, 50000)], delay_ms: 25 })",
    ),
    (
        "chaos",
        "kill-after=3,seed=7",
        "Some(ChaosConfig { kill_after: 3, seed: 7, kills: 1, mode: Exit })",
    ),
    (
        "chaos",
        "kill-after=5,seed=1,kills=2",
        "Some(ChaosConfig { kill_after: 5, seed: 1, kills: 2, mode: Exit })",
    ),
    (
        "chaos",
        "kill-after=4,seed=9,mode=stall",
        "Some(ChaosConfig { kill_after: 4, seed: 9, kills: 1, mode: Stall })",
    ),
    (
        "chaos",
        "seed=1",
        "None",
    ),
    (
        "chaos",
        "kill-after=0,seed=1",
        "None",
    ),
    (
        "chaos",
        "kill-after=x",
        "None",
    ),
    (
        "chaos",
        "kill-after=2,bogus=1",
        "None",
    ),
    (
        "chaos",
        "kill-after=2,mode=melt",
        "None",
    ),
    (
        "chaos",
        "kill-after=4,seed=9",
        "Some(ChaosConfig { kill_after: 4, seed: 9, kills: 1, mode: Exit })",
    ),
    (
        "chaos",
        "kill-after=4,seed=10",
        "Some(ChaosConfig { kill_after: 4, seed: 10, kills: 1, mode: Exit })",
    ),
    (
        "chaos",
        "kill-after=3,seed=7,kills=2",
        "Some(ChaosConfig { kill_after: 3, seed: 7, kills: 2, mode: Exit })",
    ),
    (
        "chaos",
        "kill-after=2,seed=3",
        "Some(ChaosConfig { kill_after: 2, seed: 3, kills: 1, mode: Exit })",
    ),
    (
        "chaos",
        "kill-after=1,seed=5,kills=999,mode=stall",
        "Some(ChaosConfig { kill_after: 1, seed: 5, kills: 999, mode: Stall })",
    ),
    (
        "chaos",
        "nope",
        "None",
    ),
];

fn decoded(drill: &str, spec: &str) -> String {
    match drill {
        "link" => format!("{:?}", LinkFaultConfig::decode(spec)),
        "wedge" => format!("{:?}", WedgeConfig::decode(spec)),
        "net" => format!("{:?}", NetFaultConfig::decode(spec)),
        "chaos" => format!("{:?}", ChaosConfig::decode(spec)),
        other => panic!("unknown drill {other}"),
    }
}

#[test]
fn every_spec_literal_decodes_as_before() {
    for &(drill, spec, want) in SPEC_LITERALS {
        assert_eq!(decoded(drill, spec), want, "{drill} `{spec}`");
    }
}

/// A net drill in either mode: one strike, or rates for distinct kinds in
/// any order.
fn arb_net_config() -> impl Strategy<Value = NetFaultConfig> {
    let strike = (1u64..u64::MAX, 0usize..9, any::<u64>(), 0u64..1_000).prop_map(
        |(at, kind, seed, delay_ms)| NetFaultConfig {
            delay_ms,
            ..NetFaultConfig::plan(at, NetFaultKind::ALL[kind], seed)
        },
    );
    let rates = (
        proptest::collection::vec((0usize..9, 0u32..=1_000_000), 1..6),
        any::<u64>(),
        0u64..1_000,
    )
        .prop_map(|(dice, seed, delay_ms)| {
            let mut rates: Vec<(NetFaultKind, u32)> = Vec::new();
            for (kind, ppm) in dice {
                let kind = NetFaultKind::ALL[kind];
                if rates.iter().all(|&(seen, _)| seen != kind) {
                    rates.push((kind, ppm));
                }
            }
            NetFaultConfig {
                seed,
                at: 0,
                kind: None,
                rates,
                delay_ms,
            }
        });
    prop_oneof![strike, rates]
}

fn arb_chaos_config() -> impl Strategy<Value = ChaosConfig> {
    (1u64..100_000, any::<u64>(), 1u32..1_000, any::<bool>()).prop_map(
        |(kill_after, seed, kills, stall)| ChaosConfig {
            kill_after,
            seed,
            kills,
            mode: if stall {
                goofi_core::service::chaos::ChaosMode::Stall
            } else {
                goofi_core::service::chaos::ChaosMode::Exit
            },
        },
    )
}

/// Text shaped like a drill spec: items every drill knows, mixed with
/// unknown keys, malformed values, stray separators and whitespace.
fn arb_spec_text() -> impl Strategy<Value = String> {
    const KNOWN: [&str; 20] = [
        "seed=7",
        "drop=0.25",
        "corrupt=0.1",
        "dup=0.5",
        "disc=0.2",
        "skip=2",
        "max=4",
        "hang=0.3",
        "stuck=0.1",
        "garbage=0.5",
        "recover=soft",
        "at=5",
        "kind=reset",
        "delay-ms=9",
        "reorder=1",
        "kill-after=3",
        "kills=2",
        "mode=stall",
        "stall=0",
        "at=0",
    ];
    let known = (0usize..KNOWN.len(), "[ ]{0,1}").prop_map(|(i, pad)| {
        let (key, value) = KNOWN[i].split_once('=').unwrap();
        format!("{pad}{key}{pad}={pad}{value}{pad}")
    });
    let noise = ("[a-z-]{0,6}", "[= ]{0,2}", "[0-9.eE+x -]{0,8}")
        .prop_map(|(key, eq, value)| format!("{key}{eq}{value}"));
    // Two known items for every noise item.
    let item =
        (0..3, known, noise).prop_map(|(pick, known, noise)| if pick < 2 { known } else { noise });
    proptest::collection::vec(item, 0..4).prop_map(|items| items.join(","))
}

proptest! {
    #[test]
    fn spec_items_survive_write_then_parse(
        items in proptest::collection::btree_map("[a-z][a-z-]{0,7}", "[a-z0-9.]{0,8}", 0..6),
        pad in "[ ]{0,2}",
    ) {
        let mut spec = String::new();
        for (key, value) in &items {
            plan::push(&mut spec, &format!("{pad}{key}{pad}"), format!("{pad}{value}{pad}"));
        }
        let parsed = plan::read(&spec, |spec| {
            items.keys().map(|key| spec.value(key, |v| Some(v.to_string()))?).collect::<Option<Vec<_>>>()
        });
        prop_assert_eq!(parsed, Some(items.into_values().collect()));
    }

    #[test]
    fn drill_decoders_never_panic_and_reencode_what_they_accept(
        shaped in proptest::collection::vec(arb_spec_text(), 16),
        noise in "[ -~é✓]{0,40}",
    ) {
        for text in shaped.iter().chain([&noise]) {
            if let Some(c) = LinkFaultConfig::decode(text) {
                prop_assert_eq!(LinkFaultConfig::decode(&c.encode()), Some(c));
            }
            if let Some(c) = WedgeConfig::decode(text) {
                prop_assert_eq!(WedgeConfig::decode(&c.encode()), Some(c));
            }
            if let Some(c) = NetFaultConfig::decode(text) {
                prop_assert_eq!(NetFaultConfig::decode(&c.encode()), Some(c));
            }
            if let Some(c) = ChaosConfig::decode(text) {
                prop_assert_eq!(ChaosConfig::decode(&c.encode()), Some(c));
            }
        }
    }

    #[test]
    fn net_fault_config_encode_decode_identity(cfg in arb_net_config()) {
        prop_assert_eq!(NetFaultConfig::decode(&cfg.encode()), Some(cfg));
    }

    #[test]
    fn chaos_config_encode_decode_identity(cfg in arb_chaos_config()) {
        prop_assert_eq!(ChaosConfig::decode(&cfg.encode()), Some(cfg));
    }
}
