//! The simulated metacomputing fabric.
//!
//! The paper's testbed is a wide-area collection of Unix machines across
//! many administrative domains. This crate is the substitution documented
//! in DESIGN.md: an in-process fabric holding the registered Legion
//! objects (Hosts, Vaults, Classes and service objects), organized into
//! [`Domain`]s with a configurable inter-domain latency / message-failure
//! model, a [`VirtualClock`] and a deterministic RNG.
//!
//! Every inter-object interaction in the experiments goes through
//! [`Fabric::link`], which (1) applies the domain-pair failure
//! probability, (2) charges the domain-pair latency to the metrics
//! ledger, and (3) counts the message. The RMI's observable behaviour —
//! who wins, where crossovers fall — depends on this structure, not on
//! real sockets, so experiments are reproducible bit-for-bit.

pub mod clock;
pub mod domain;
pub mod fabric;
pub mod faults;
pub mod metrics;
pub mod reconcile;
pub mod rng;
pub mod sim;

pub use clock::VirtualClock;
pub use domain::{Domain, DomainId, DomainTopology};
pub use fabric::Fabric;
pub use faults::{FaultAction, FaultCounts, FaultEvent, FaultPlan};
pub use metrics::{MetricsLedger, MetricsSnapshot};
pub use reconcile::{reconcile_trace, reconciliation_report, Mismatch};
pub use rng::DetRng;
pub use sim::{SimError, SimHandle, SimRunStats};
