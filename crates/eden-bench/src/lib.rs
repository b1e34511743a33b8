//! # eden-bench — experiment harnesses for every figure and table
//!
//! Each module reproduces one piece of the paper's evaluation (§5) on the
//! simulated testbed and returns structured results; the `benches/`
//! targets run them and print rows next to the paper's numbers, and the
//! workspace integration tests assert the qualitative shape (who wins, by
//! roughly what factor).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig09`] | Figure 9 — FCTs under baseline/PIAS/SFF × native/Eden |
//! | [`fig10`] | Figure 10 — ECMP vs WCMP throughput × native/Eden |
//! | [`fig11`] | Figure 11 — Pulsar READ/WRITE isolation |
//! | [`fig12`] | Figure 12 — CPU overhead of Eden components + §5.4 footprint |
//! | [`report`] | table-rendering helpers shared by the bench targets |
//! | [`ctrl`] | control-plane convergence under loss and partitions |
//! | [`ctrl_scale`] | flat vs hierarchical root load, delta vs full ships |
//! | [`repl`] | replica staleness and delta wire cost vs hosts × loss |

pub mod ctrl;
pub mod ctrl_scale;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod repl;
pub mod report;
