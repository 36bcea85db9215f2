//! # fractalcloud-perfbench: the serving benchmark
//!
//! One runner drives the real `fractalcloud-serve` [`Engine`] and
//! [`TcpServer`] through three named workloads from a single process,
//! checks every answer against the library's direct result, and prints
//! end-to-end metrics (untraced runs) or per-layer metrics with a latency
//! stack (traced runs). See `README.md` in this directory.
//!
//! [`Engine`]: fractalcloud_serve::Engine
//! [`TcpServer`]: fractalcloud_serve::TcpServer

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod host;
pub mod inputs;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;
