//! The workload programs, written in target assembly.

use crate::{OutputSpec, Workload, WorkloadKind};
use thor::asm::assemble;

/// Deterministic pseudo-random data generator (xorshift), used to fill the
/// input arrays of the data-processing workloads.
fn test_data(seed: u32, count: usize, modulo: u32) -> Vec<u32> {
    let mut x = seed | 1;
    (0..count)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x % modulo
        })
        .collect()
}

fn words_directive(values: &[u32]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn build(name: &str, description: &str, source: String, kind: WorkloadKind) -> Workload {
    let image =
        assemble(&source).unwrap_or_else(|e| panic!("workload `{name}` failed to assemble: {e}"));
    let output = match kind {
        WorkloadKind::ControlLoop => OutputSpec::Ports,
        WorkloadKind::Terminating => {
            let addr = image
                .label("result")
                .unwrap_or_else(|| panic!("workload `{name}` must define a `result` label"));
            let len = image.label("result_end").map(|end| end - addr).unwrap_or(1);
            OutputSpec::Memory { addr, len }
        }
    };
    Workload {
        name: name.to_string(),
        description: description.to_string(),
        source,
        image,
        kind,
        output,
    }
}

/// Number of elements sorted by [`bubblesort`].
pub const SORT_LEN: usize = 16;

/// Bubble sort over [`SORT_LEN`] pseudo-random words.
pub fn bubblesort() -> Workload {
    let data = test_data(0xB00B5EED, SORT_LEN, 10_000);
    let source = format!(
        r"; bubble sort of {n} words
.equ N, {n}
        ldi r1, 0            ; pass counter
        li  r3, result       ; array base
outer:
        ldi r2, 0            ; j
inner:
        ldx r4, r3, r2       ; a[j]
        addi r5, r2, 1
        ldx r6, r3, r5       ; a[j+1]
        cmp r4, r6
        ble noswap
        stx r3, r2, r6
        stx r3, r5, r4
noswap:
        addi r2, r2, 1
        cmpi r2, N-1
        blt inner
        addi r1, r1, 1
        cmpi r1, N-1
        blt outer
        halt
.data
result:
        .word {data}
result_end:
",
        n = SORT_LEN,
        data = words_directive(&data),
    );
    build(
        "bubblesort",
        "bubble sort: data-dependent branching and memory traffic",
        source,
        WorkloadKind::Terminating,
    )
}

/// Matrix dimension of [`matmul`].
pub const MAT_N: usize = 4;

/// 4x4 integer matrix multiplication `C = A * B`.
pub fn matmul() -> Workload {
    let a = test_data(0xA11CE, MAT_N * MAT_N, 50);
    let b = test_data(0xB0B, MAT_N * MAT_N, 50);
    let source = format!(
        r"; {n}x{n} matrix multiply
.equ N, {n}
        ldi r1, 0            ; i
iloop:
        ldi r2, 0            ; j
jloop:
        ldi r3, 0            ; k
        ldi r4, 0            ; acc
kloop:
        muli r10, r1, N
        add  r10, r10, r3
        li   r5, amat
        ldx  r8, r5, r10     ; A[i][k]
        muli r10, r3, N
        add  r10, r10, r2
        li   r6, bmat
        ldx  r9, r6, r10     ; B[k][j]
        mul  r8, r8, r9
        add  r4, r4, r8
        addi r3, r3, 1
        cmpi r3, N
        blt  kloop
        muli r10, r1, N
        add  r10, r10, r2
        li   r7, result
        stx  r7, r10, r4     ; C[i][j] = acc
        addi r2, r2, 1
        cmpi r2, N
        blt  jloop
        addi r1, r1, 1
        cmpi r1, N
        blt  iloop
        halt
.data
amat:   .word {a}
bmat:   .word {b}
result: .space {nn}
result_end:
",
        n = MAT_N,
        nn = MAT_N * MAT_N,
        a = words_directive(&a),
        b = words_directive(&b),
    );
    build(
        "matmul",
        "4x4 matrix multiplication: nested loops and the multiplier",
        source,
        WorkloadKind::Terminating,
    )
}

/// Number of words hashed by [`crc32`].
pub const CRC_LEN: usize = 16;

/// Bitwise CRC-32 (polynomial `0xEDB88320`) over [`CRC_LEN`] words.
pub fn crc32() -> Workload {
    let data = test_data(0xC4C32, CRC_LEN, u32::MAX);
    let source = format!(
        r"; CRC-32 over {len} words (bitwise, reflected polynomial)
.equ LEN, {len}
        li  r1, 0xFFFFFFFF   ; crc
        li  r7, 0xEDB88320   ; polynomial
        ldi r2, 0            ; word index
wloop:
        li  r3, data
        ldx r4, r3, r2
        xor r1, r1, r4
        ldi r5, 32           ; bit counter
bloop:
        andi r6, r1, 1
        cmpi r6, 0
        beq  even
        shri r1, r1, 1
        xor  r1, r1, r7
        br   next
even:
        shri r1, r1, 1
next:
        subi r5, r5, 1
        cmpi r5, 0
        bgt  bloop
        addi r2, r2, 1
        cmpi r2, LEN
        blt  wloop
        li  r3, result
        st  r3, r1, 0
        halt
.data
data:   .word {data}
result: .word 0
result_end:
",
        len = CRC_LEN,
        data = words_directive(&data),
    );
    build(
        "crc32",
        "bitwise CRC-32: shifts, masks and long dependency chains",
        source,
        WorkloadKind::Terminating,
    )
}

/// Upper bound of the prime count in [`primes`].
pub const PRIMES_LIMIT: u32 = 100;

/// Counts primes below [`PRIMES_LIMIT`] by trial division.
pub fn primes() -> Workload {
    let source = format!(
        r"; count primes below {limit} by trial division
.equ LIMIT, {limit}
        ldi r1, 2            ; candidate n
        ldi r3, 0            ; prime count
nloop:
        ldi r2, 2            ; divisor d
dloop:
        mul r4, r2, r2
        cmp r4, r1
        bgt prime            ; d*d > n => prime
        div r4, r1, r2
        mul r4, r4, r2
        cmp r4, r1
        beq notprime         ; n divisible by d
        addi r2, r2, 1
        br  dloop
prime:
        addi r3, r3, 1
notprime:
        addi r1, r1, 1
        cmpi r1, LIMIT
        blt nloop
        li  r5, result
        st  r5, r3, 0
        halt
.data
result: .word 0
result_end:
",
        limit = PRIMES_LIMIT,
    );
    build(
        "primes",
        "prime counting by trial division: exercises the divider",
        source,
        WorkloadKind::Terminating,
    )
}

/// Argument of the recursive Fibonacci workload.
pub const FIB_N: u32 = 15;

/// Recursive Fibonacci — deep call/return and stack traffic.
pub fn fibonacci() -> Workload {
    let source = format!(
        r"; recursive fibonacci({n})
        ldi r1, {n}
        call fib
        li  r5, result
        st  r5, r2, 0
        halt
fib:                         ; r1 = n, returns r2 = fib(n)
        cmpi r1, 2
        blt base
        push lr
        push r1
        subi r1, r1, 1
        call fib             ; r2 = fib(n-1)
        pop r1
        push r2
        subi r1, r1, 2
        call fib             ; r2 = fib(n-2)
        pop r3
        add r2, r2, r3
        pop lr
        ret
base:
        mov r2, r1
        ret
.data
result: .word 0
result_end:
",
        n = FIB_N,
    );
    build(
        "fibonacci",
        "recursive fibonacci: call/ret, link register and stack",
        source,
        WorkloadKind::Terminating,
    )
}

/// Fixed-point set point of the PI controller (10.0 * 256).
pub const CONTROL_SETPOINT: i32 = 2560;

/// Assertion id fired when the control output leaves its plausible range.
pub const ASSERT_OUTPUT_RANGE: u16 = 1;
/// Assertion id fired when the sensor input leaves its plausible range.
pub const ASSERT_INPUT_RANGE: u16 = 2;

/// Fixed-point PI speed controller with executable assertions.
///
/// Each iteration: read the sensor from input port 0, compute
/// `u = (Kp*e + Ki*sum(e)) >> 8`, assert `u` and the sensor are in range
/// (`trap 1` / `trap 2` otherwise — the executable assertions of the
/// paper's reference \[12\]), write `u` to output port 0 and `sync`.
pub fn pi_control() -> Workload {
    let source = format!(
        r"; fixed-point PI controller with executable assertions
.equ KP, 64              ; 0.25 in Q8
.equ KI, 8               ; 0.03125 in Q8
.equ SETPOINT, {sp}
.equ SENSOR_MAX, 8192    ; plausible speed ceiling (32.0)
.equ U_MAX, 16384        ; actuator limit (64.0)
        ldi r10, 0           ; integral accumulator
        ldi r12, 8           ; Q8 shift amount
loop:
        in   r1, 0           ; sensor
        cmpi r1, SENSOR_MAX  ; executable assertion on the input
        bgt  bad_input
        cmpi r1, 0
        blt  bad_input
        li   r2, SETPOINT
        sub  r3, r2, r1      ; e = setpoint - sensor
        add  r10, r10, r3    ; integral += e
        muli r4, r3, KP
        asr  r4, r4, r12     ; (Kp*e) >> 8
        muli r5, r10, KI
        asr  r5, r5, r12     ; (Ki*sum) >> 8
        add  r6, r4, r5      ; u
        li   r7, U_MAX       ; executable assertion on the output
        cmp  r6, r7
        bgt  bad_output
        li   r7, -16384
        cmp  r6, r7
        blt  bad_output
        out  0, r6
        sync 0
        br   loop
bad_output:
        trap {t_out}
bad_input:
        trap {t_in}
",
        sp = CONTROL_SETPOINT,
        t_out = ASSERT_OUTPUT_RANGE,
        t_in = ASSERT_INPUT_RANGE,
    );
    build(
        "pi-control",
        "PI speed controller with executable assertions (paper ref [12])",
        source,
        WorkloadKind::ControlLoop,
    )
}

/// PI controller with executable assertions *and best-effort recovery*.
///
/// The companion study \[12\] pairs the assertions of [`pi_control`] with
/// best-effort recovery: instead of failing stop (`trap`), an implausible
/// value is replaced with the best available estimate and the loop carries
/// on — an implausible sensor reading is assumed to be at the set point, a
/// saturated control output is clamped to the actuator limit and the
/// wound-up integral term is reset. Comparing this workload against
/// [`pi_control`] under identical faults reproduces that paper's headline:
/// recovery trades fail-stop detections for continued (usually correct)
/// service.
pub fn pi_control_ber() -> Workload {
    let source = format!(
        r"; fixed-point PI controller with assertions + best-effort recovery
.equ KP, 64
.equ KI, 8
.equ SETPOINT, {sp}
.equ SENSOR_MAX, 8192
.equ U_MAX, 16384
        ldi r10, 0           ; integral accumulator
        ldi r12, 8           ; Q8 shift amount
loop:
        in   r1, 0           ; sensor
        cmpi r1, SENSOR_MAX  ; executable assertion on the input
        bgt  fix_input
        cmpi r1, 0
        blt  fix_input
input_ok:
        li   r2, SETPOINT
        sub  r3, r2, r1
        add  r10, r10, r3
        muli r4, r3, KP
        asr  r4, r4, r12
        muli r5, r10, KI
        asr  r5, r5, r12
        add  r6, r4, r5      ; u
        li   r7, U_MAX       ; executable assertion on the output
        cmp  r6, r7
        bgt  fix_high
        li   r7, -16384
        cmp  r6, r7
        blt  fix_low
emit:
        out  0, r6
        sync 0
        br   loop
fix_input:
        li   r1, SETPOINT    ; best effort: assume plant at set point
        br   input_ok
fix_high:
        li   r6, U_MAX       ; clamp to actuator limit
        ldi  r10, 0          ; reset the wound-up integral
        br   emit
fix_low:
        li   r6, -16384
        ldi  r10, 0
        br   emit
",
        sp = CONTROL_SETPOINT,
    );
    build(
        "pi-control-ber",
        "PI controller with assertions + best-effort recovery (paper ref [12])",
        source,
        WorkloadKind::ControlLoop,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use envsim::{DcMotor, Environment};
    use scanchain::ScanTarget;
    use thor::{Cpu, CpuConfig, StopReason};

    fn run_to_halt(w: &Workload) -> Cpu {
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&w.image).unwrap();
        assert_eq!(cpu.run(5_000_000), StopReason::Halted, "{}", w.name);
        cpu
    }

    #[test]
    fn bubblesort_sorts() {
        let w = bubblesort();
        let cpu = run_to_halt(&w);
        let out = w.read_output(&cpu).unwrap();
        assert_eq!(out.len(), SORT_LEN);
        let mut expected = test_data(0xB00B5EED, SORT_LEN, 10_000);
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    #[test]
    fn matmul_matches_reference() {
        let w = matmul();
        let cpu = run_to_halt(&w);
        let out = w.read_output(&cpu).unwrap();
        let a = test_data(0xA11CE, MAT_N * MAT_N, 50);
        let b = test_data(0xB0B, MAT_N * MAT_N, 50);
        let mut expected = vec![0u32; MAT_N * MAT_N];
        for i in 0..MAT_N {
            for j in 0..MAT_N {
                let mut acc = 0u32;
                for k in 0..MAT_N {
                    acc = acc.wrapping_add(a[i * MAT_N + k].wrapping_mul(b[k * MAT_N + j]));
                }
                expected[i * MAT_N + j] = acc;
            }
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn crc32_matches_reference() {
        let w = crc32();
        let cpu = run_to_halt(&w);
        let out = w.read_output(&cpu).unwrap();
        // Reference CRC over the same words (bitwise, reflected).
        let data = test_data(0xC4C32, CRC_LEN, u32::MAX);
        let mut crc = 0xFFFF_FFFFu32;
        for w in data {
            crc ^= w;
            for _ in 0..32 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        assert_eq!(out, vec![crc]);
    }

    #[test]
    fn primes_counts_25() {
        let w = primes();
        let cpu = run_to_halt(&w);
        assert_eq!(w.read_output(&cpu).unwrap(), vec![25]);
    }

    #[test]
    fn fibonacci_15_is_610() {
        let w = fibonacci();
        let cpu = run_to_halt(&w);
        assert_eq!(w.read_output(&cpu).unwrap(), vec![610]);
    }

    #[test]
    fn pi_control_converges_on_dc_motor() {
        let w = pi_control();
        let mut cpu = Cpu::new(CpuConfig {
            watchdog_cycles: None,
            ..CpuConfig::default()
        });
        cpu.load_image(&w.image).unwrap();
        let mut motor = DcMotor::new();
        let mut sensor = 0u32;
        for _ in 0..300 {
            cpu.set_in_port(0, sensor);
            match cpu.run(10_000) {
                StopReason::Sync { .. } => {}
                other => panic!("unexpected stop: {other:?}"),
            }
            let inputs = motor.exchange(&[cpu.out_port(0)]);
            sensor = inputs[0];
        }
        let speed = motor.speed();
        assert!(
            (speed - CONTROL_SETPOINT).abs() < 128,
            "controller failed to converge: speed={speed}"
        );
    }

    #[test]
    fn pi_control_ber_converges_and_recovers() {
        let w = pi_control_ber();
        let mut cpu = Cpu::new(CpuConfig {
            watchdog_cycles: None,
            ..CpuConfig::default()
        });
        cpu.load_image(&w.image).unwrap();
        let mut motor = DcMotor::new();
        let mut sensor = 0u32;
        for i in 0..300 {
            cpu.set_in_port(0, sensor);
            match cpu.run(10_000) {
                StopReason::Sync { .. } => {}
                other => panic!("unexpected stop: {other:?}"),
            }
            let inputs = motor.exchange(&[cpu.out_port(0)]);
            sensor = inputs[0];
            // Mid-run, feed one wildly implausible sensor value: the BER
            // workload must keep running instead of trapping.
            if i == 150 {
                sensor = 1_000_000;
            }
        }
        let speed = motor.speed();
        assert!(
            (speed - CONTROL_SETPOINT).abs() < 128,
            "BER controller failed to converge: speed={speed}"
        );
    }

    #[test]
    fn pi_control_ber_converges_on_jet_engine() {
        use envsim::JetEngine;
        let w = pi_control_ber();
        let mut cpu = Cpu::new(CpuConfig {
            watchdog_cycles: None,
            ..CpuConfig::default()
        });
        cpu.load_image(&w.image).unwrap();
        let mut engine = JetEngine::new();
        let mut sensor = envsim::JET_IDLE as u32;
        for _ in 0..2_000 {
            cpu.set_in_port(0, sensor);
            match cpu.run(10_000) {
                StopReason::Sync { .. } => {}
                other => panic!("unexpected stop: {other:?}"),
            }
            sensor = engine.exchange(&[cpu.out_port(0)])[0];
        }
        // Spool-up is slow, but the integral term gets there.
        assert!(
            (engine.speed() - CONTROL_SETPOINT).abs() < 64,
            "speed {}",
            engine.speed()
        );
    }

    #[test]
    fn pi_control_asserts_on_implausible_sensor() {
        let w = pi_control();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&w.image).unwrap();
        cpu.set_in_port(0, 1_000_000); // absurd sensor value
        match cpu.run(10_000) {
            StopReason::Detected(thor::Detection::Assertion(id)) => {
                assert_eq!(id, ASSERT_INPUT_RANGE);
            }
            other => panic!("expected input assertion, got {other:?}"),
        }
    }

    #[test]
    fn workload_runs_are_deterministic() {
        for w in crate::all() {
            if w.kind != WorkloadKind::Terminating {
                continue;
            }
            let [a, b] = [run_to_halt(&w), run_to_halt(&w)].map(|cpu| {
                let chains = cpu.chain_names();
                chains
                    .iter()
                    .map(|c| cpu.capture_chain(c).unwrap())
                    .collect::<Vec<_>>()
            });
            assert_eq!(a, b, "{}", w.name);
        }
    }
}
