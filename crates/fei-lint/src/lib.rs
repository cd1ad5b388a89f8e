//! `fei-lint`: the workspace invariant linter.
//!
//! The reproduction's headline guarantees are behavioural: the serial and
//! threaded FedAvg engines agree bit-for-bit (`tests/engines_agree.rs`),
//! library code never panics where a typed error belongs
//! (`tests/fault_tolerance.rs`), and every joule lands in exactly one
//! [`EnergyLedger`](../fei_core/ledger) bucket
//! (`tests/energy_accounting.rs`). Those tests catch violations only on
//! the inputs they happen to run; this crate turns the coding contracts
//! clippy cannot express into a gate over the workspace's library code:
//!
//! * **no-panic library code** (`no-panic`) — fallible paths return typed
//!   errors; `expect("invariant: …")` is the sanctioned form for provably
//!   unreachable states;
//! * **numeric safety** (`float-eq`) — no exact `==`/`!=` against float
//!   literals; compare within a tolerance or justify the exact sentinel;
//! * **ledger discipline** (`ledger-discipline`) — public joule-taking
//!   APIs in `fei-core`/`fei-power` must carry an `EnergyUse`
//!   classification.
//!
//! The engine makes one pass, one file at a time. Clippy owns the rules
//! that need types: each deterministic crate's `clippy.toml` bans seeded
//! hash containers, wall clocks and `RandomState` (`disallowed-types`),
//! and `fei-net`/`fei-proto` deny `clippy::cast_possible_truncation`
//! (DESIGN.md §9 lists which tool owns what). The gate is zero findings.
//!
//! Sites that deliberately break a rule carry an escape comment on the
//! same line or the line above:
//!
//! ```text
//! // fei-lint: allow(no-panic, reason = "fault-injection: the panic IS the fault")
//! ```
//!
//! The reason is mandatory and malformed directives — including ones
//! naming a rule this crate does not own — are themselves violations, so
//! the escape hatch stays auditable. Run the binary with
//! `cargo run -p fei-lint` (add `-- --json` for machine-readable output).

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use config::LintConfig;
pub use engine::{find_workspace_root, lint_source, run};
pub use report::{Report, Violation};
pub use rules::RuleId;
