//! B1–B3: microbenchmarks of the substrates — scan-chain shift throughput,
//! CPU simulator speed, assembler, and database operations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use goofidb::{Database, Value};
use scanchain::{ScanTarget, TestCard};
use thor::{Cpu, CpuConfig, StopReason};

fn bench_scan_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("scanchain");
    let cpu = Cpu::new(CpuConfig::default());
    let bits = cpu.chain_layout("internal").unwrap().total_bits() as u64;
    group.throughput(Throughput::Elements(bits));
    group.bench_function("read_internal_chain", |b| {
        let mut card = TestCard::new(Cpu::new(CpuConfig::default()));
        card.init().unwrap();
        b.iter(|| card.read_chain("internal").unwrap());
    });
    group.bench_function("write_internal_chain", |b| {
        let mut card = TestCard::new(Cpu::new(CpuConfig::default()));
        card.init().unwrap();
        let image = card.read_chain("internal").unwrap();
        b.iter(|| card.write_chain("internal", &image).unwrap());
    });
    group.bench_function("flip_cell_bit", |b| {
        let mut card = TestCard::new(Cpu::new(CpuConfig::default()));
        card.init().unwrap();
        b.iter(|| card.flip_cell_bit("internal", "R7", 13).unwrap());
    });
    group.finish();
}

fn bench_cpu(c: &mut Criterion) {
    let mut group = c.benchmark_group("thor-cpu");
    for name in ["bubblesort", "crc32", "fibonacci"] {
        let wl = workloads::by_name(name).unwrap();
        // Instruction count of one full run, for throughput reporting.
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&wl.image).unwrap();
        assert_eq!(cpu.run(10_000_000), StopReason::Halted);
        group.throughput(Throughput::Elements(cpu.instructions()));
        group.bench_function(&format!("run_{name}"), |b| {
            let mut cpu = Cpu::new(CpuConfig::default());
            cpu.load_image(&wl.image).unwrap();
            b.iter(|| {
                cpu.reset();
                assert_eq!(cpu.run(10_000_000), StopReason::Halted);
            });
        });
    }
    group.bench_function("step_traced", |b| {
        let wl = workloads::by_name("crc32").unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&wl.image).unwrap();
        let mut log = thor::AccessLog::default();
        b.iter(|| {
            if cpu.step_logged(&mut log).is_some() {
                cpu.reset();
            }
        });
    });
    group.finish();
}

fn bench_assembler(c: &mut Criterion) {
    let wl = workloads::by_name("matmul").unwrap();
    c.bench_function("assemble_matmul", |b| {
        b.iter(|| thor::asm::assemble(&wl.source).unwrap());
    });
}

fn bench_database(c: &mut Criterion) {
    let mut group = c.benchmark_group("goofidb");
    group.bench_function("insert_100_rows", |b| {
        b.iter_batched(
            || {
                let mut db = Database::new();
                db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, outcome TEXT, cycles INTEGER)")
                    .unwrap();
                db
            },
            |mut db| {
                for i in 0..100 {
                    db.insert(
                        "t",
                        vec![Value::Int(i), Value::text("latent"), Value::Int(i * 7)],
                    )
                    .unwrap();
                }
                db
            },
            BatchSize::SmallInput,
        );
    });

    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, outcome TEXT, cycles INTEGER)")
        .unwrap();
    for i in 0..1_000 {
        db.insert(
            "t",
            vec![
                Value::Int(i),
                Value::text(["detected", "escaped", "latent", "overwritten"][(i % 4) as usize]),
                Value::Int(i * 3),
            ],
        )
        .unwrap();
    }
    group.bench_function("group_by_1000_rows", |b| {
        b.iter(|| {
            db.query("SELECT outcome, COUNT(*) AS n FROM t GROUP BY outcome ORDER BY n DESC")
                .unwrap()
        });
    });
    group.bench_function("point_select", |b| {
        b.iter(|| db.query("SELECT cycles FROM t WHERE id = 531").unwrap());
    });
    group.bench_function("save_load_roundtrip", |b| {
        b.iter(|| Database::load_from_string(&db.save_to_string()).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_scan_chain, bench_cpu, bench_assembler, bench_database
}
criterion_main!(benches);
