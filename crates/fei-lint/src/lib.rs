//! `fei-lint`: the workspace invariant linter.
//!
//! The reproduction's headline guarantees are behavioural: the serial and
//! threaded FedAvg engines agree bit-for-bit (`tests/engines_agree.rs`),
//! defenses with a zero Byzantine budget equal the plain mean exactly
//! (`tests/byzantine.rs`), and every joule lands in exactly one
//! [`EnergyLedger`](../fei_core/ledger) bucket
//! (`tests/energy_accounting.rs`). Those tests catch violations only on
//! the inputs they happen to run; this crate turns the underlying coding
//! contracts into a compile-time-style gate over the whole workspace:
//!
//! * **determinism** (`det-map-iter`, `det-wallclock`, `det-entropy`) —
//!   no seeded-order containers, wall clocks, or OS entropy in
//!   `fei-fl`/`fei-core`/`fei-sim`;
//! * **no-panic library code** (`no-panic`) — fallible paths return typed
//!   errors; `expect("invariant: …")` is the sanctioned form for provably
//!   unreachable states;
//! * **numeric safety** (`float-eq`) — no exact `==`/`!=` against float
//!   literals; use `fei_math::approx` or justify the exact sentinel;
//! * **ledger discipline** (`ledger-discipline`) — public joule-taking
//!   APIs in `fei-core`/`fei-power` must carry an `EnergyUse`
//!   classification.
//!
//! Since v2 the engine runs **two passes**: pass 1 builds a lightweight
//! [`model::WorkspaceModel`] from every file (including test trees), and
//! pass 2 adds cross-file rules over it ([`crossfile`]): `enum-billing`
//! (no dead `EnergyUse`/`AbortReason` variants) and `truncating-cast` (no
//! bare narrowing `as` in codec paths).
//! (Two properties need no rule. The wire schema: `fei-proto`'s
//! `record.rs` table declares each record kind once and asserts tag
//! uniqueness at compile time. Write-ahead order: the coordinator's
//! journaled state sits behind `&JournalState`, and only the journal's own
//! append-then-fold can change it.)
//! The gate is zero findings.
//!
//! Sites that deliberately break a rule carry an escape comment on the
//! same line or the line above:
//!
//! ```text
//! // fei-lint: allow(no-panic, reason = "fault-injection: the panic IS the fault")
//! ```
//!
//! The reason is mandatory and malformed directives are themselves
//! violations, so the escape hatch stays auditable. See DESIGN.md,
//! "Statically-enforced invariants", for the policy; run the binary with
//! `cargo run -p fei-lint` (add `-- --json` for machine-readable output).

#![forbid(unsafe_code)]

pub mod config;
pub mod crossfile;
pub mod engine;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;

pub use config::LintConfig;
pub use engine::{find_workspace_root, lint_source, run};
pub use report::{Report, Violation};
pub use rules::RuleId;
