//! GOOFI — Generic Object-Oriented Fault Injection tool, umbrella crate.
//!
//! Re-exports the whole workspace behind one dependency. See the individual
//! crates for detail:
//!
//! - [`core`] (`goofi-core`): the fault-injection framework — campaigns,
//!   fault models, triggers, the SCIFI/SWIFI algorithms and the
//!   target-system interface trait.
//! - [`analysis`] (`goofi-analysis`): the analysis phase — outcome
//!   classification, coverage statistics and report tables.
//! - [`thor`]: the Thor-RD-like CPU simulator target system.
//! - [`riscv`]: the RV32I core — the second target system, proving the
//!   framework generic.
//! - [`scanchain`]: IEEE 1149.1-style scan-chain/test-card infrastructure.
//! - [`goofidb`]: the embedded SQL campaign database.
//! - [`workloads`]: assembler and workload program library.
//! - [`envsim`]: environment (plant) simulators that close the loop around
//!   control workloads.
//!
//! The [`targets`] module is the one place that knows every ported target
//! system by name — the registry behind the CLI's `--target` flag.

#![forbid(unsafe_code)]

pub use envsim;
pub use goofi_analysis as analysis;
pub use goofi_core as core;
pub use goofi_riscv;
pub use goofi_thor;
pub use goofidb;
pub use scanchain;
pub use thor;
pub use workloads;

pub mod targets {
    //! Registry of ported target systems.
    //!
    //! Everything above the `TargetAccess` seam is target-agnostic; the
    //! only components that must name concrete ports are the CLI entry
    //! points (`--target` flag, workload pick, worker spawn) and they all
    //! go through here. Adding a third CPU core means its ISA half inside
    //! the `scanchain::Core` skeleton (which `goofi_core::card::CardTarget`
    //! then ports as it stands) and one new [`TargetKind`] variant, with
    //! its arm in each method below (its program library in
    //! [`TargetKind::programs`]) — nothing else in the tool changes.

    use goofi_core::campaign::{OutputRegion, WorkloadImage};
    use goofi_core::TargetAccess;
    use scanchain::Isa;
    use workloads::{OutputSpec, WorkloadKind};

    /// A library program as campaign set-up reads it, whichever CPU it
    /// was written for.
    #[derive(Debug, Clone)]
    pub struct Program {
        /// The image a campaign loads; its name is the program's.
        pub image: WorkloadImage,
        /// Where the program leaves its result.
        pub output: OutputRegion,
        /// Terminating or control loop.
        pub kind: WorkloadKind,
        /// One-line description for `goofi workloads`.
        pub description: String,
    }

    /// A [`Program`] from a library workload of either CPU: the two
    /// libraries' types carry the same fields.
    macro_rules! program {
        ($w:expr) => {{
            let w = $w;
            Program {
                image: WorkloadImage {
                    name: w.name,
                    words: w.image.words,
                    code_words: w.image.code_words,
                    entry: w.image.entry,
                },
                output: match w.output {
                    OutputSpec::Memory { addr, len } => OutputRegion::Memory { addr, len },
                    OutputSpec::Ports => OutputRegion::Ports,
                },
                kind: w.kind,
                description: w.description,
            }
        }};
    }

    /// A ported target system selectable on the command line.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum TargetKind {
        /// The Thor-RD-like CPU simulator (`goofi-thor`), the paper's CPU.
        #[default]
        Thor,
        /// The RV32I core (`goofi-riscv`), the second target.
        Riscv,
    }

    impl TargetKind {
        /// Every registered target, in presentation order.
        pub const ALL: [TargetKind; 2] = [TargetKind::Thor, TargetKind::Riscv];

        /// Parses a `--target` flag value.
        pub fn parse(s: &str) -> Option<TargetKind> {
            match s {
                "thor" | "thor-rd" => Some(TargetKind::Thor),
                "riscv" | "rv32i" => Some(TargetKind::Riscv),
                _ => None,
            }
        }

        /// The canonical flag spelling.
        pub fn flag(self) -> &'static str {
            match self {
                TargetKind::Thor => "thor",
                TargetKind::Riscv => "riscv",
            }
        }

        /// The port's [`TargetAccess::target_name`] (keys the campaign's
        /// `target_system` field in the database).
        pub fn system_name(self) -> &'static str {
            match self {
                TargetKind::Thor => thor::ThorIsa::NAME,
                TargetKind::Riscv => riscv::Rv32iIsa::NAME,
            }
        }

        /// One-line description for `goofi targets` and the docs.
        pub fn description(self) -> &'static str {
            match self {
                TargetKind::Thor => "Thor-RD-like CPU simulator",
                TargetKind::Riscv => "RV32I cycle-counting core",
            }
        }

        /// Recovers the kind from a campaign's stored `target_system`
        /// name, so `run`/`resume`/worker spawns pick the right port
        /// without the user repeating `--target`.
        pub fn from_system_name(name: &str) -> Option<TargetKind> {
            TargetKind::ALL
                .into_iter()
                .find(|k| k.system_name() == name)
                .or_else(|| TargetKind::parse(name))
        }

        /// Builds a fresh boxed instance of the port.
        pub fn build(self) -> Box<dyn TargetAccess> {
            match self {
                TargetKind::Thor => Box::new(goofi_thor::ThorTarget::default()),
                TargetKind::Riscv => Box::new(goofi_riscv::RiscvTarget::default()),
            }
        }

        /// Every program in the CPU's workload library, in listing order.
        pub fn programs(self) -> Vec<Program> {
            match self {
                TargetKind::Thor => workloads::all().into_iter().map(|w| program!(w)).collect(),
                TargetKind::Riscv => workloads::riscv_all()
                    .into_iter()
                    .map(|w| program!(w))
                    .collect(),
            }
        }

        /// The library program called `name` on this CPU, if it has one.
        pub fn program(self, name: &str) -> Option<Program> {
            self.programs().into_iter().find(|p| p.image.name == name)
        }
    }

    impl std::fmt::Display for TargetKind {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(self.flag())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parse_accepts_flags_and_system_names() {
            assert_eq!(TargetKind::parse("thor"), Some(TargetKind::Thor));
            assert_eq!(TargetKind::parse("riscv"), Some(TargetKind::Riscv));
            assert_eq!(TargetKind::parse("rv32i"), Some(TargetKind::Riscv));
            assert_eq!(TargetKind::parse("z80"), None);
        }

        #[test]
        fn system_names_round_trip() {
            for kind in TargetKind::ALL {
                assert_eq!(TargetKind::from_system_name(kind.system_name()), Some(kind));
                assert_eq!(TargetKind::parse(kind.flag()), Some(kind));
            }
        }

        #[test]
        fn build_produces_the_named_port() {
            for kind in TargetKind::ALL {
                let target = kind.build();
                assert_eq!(target.target_name(), kind.system_name());
            }
        }
    }
}
