//! `soctdc serve`: a fault-tolerant persistent planning service.
//!
//! This crate turns the planner into a long-running daemon:
//!
//! * **Protocol** — newline-delimited JSON over stdio ([`proto`],
//!   [`json`]) plus a minimal HTTP/1.1 listener ([`http`]), both built on
//!   std only and held to the untrusted-parser contract.
//! * **Persistence** — per-session directories with atomic writes and a
//!   write-ahead inflight journal ([`session`]); a restart after any
//!   crash recovers every session and re-executes journaled requests.
//! * **Bounded resources** — a bounded request queue with explicit load
//!   shedding ([`queue`]), a bounded plan-text memo, a bounded SOC cache
//!   (repeat plans skip synthesis), and the bounded design/eval/profile
//!   caches of the underlying planner.
//! * **Fault injection** — [`fault`] arms process aborts at named points
//!   so the crash-recovery story is *tested*, not asserted.
//!
//! The daemon itself lives in [`server`]; the `soctdc serve` subcommand
//! is a thin wrapper over [`server::run`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fault;
pub mod http;
pub mod json;
pub mod proto;
pub mod queue;
pub mod server;
pub mod session;

pub use fault::{FaultPlan, FAULT_ENV};
pub use server::{run, ServeConfig};
pub use session::{DesignSource, Recovery, ServeError, SessionStore};
