//! Cycle arithmetic for the simulator.
//!
//! The whole substrate measures time in core clock cycles (the paper's
//! baseline runs at 2.5 GHz, Table 3). We use a plain `u64` alias rather than
//! a heavyweight newtype because cycle values flow through arithmetic-dense
//! inner loops in every model; the alias keeps call sites readable.

/// A point in simulated time, measured in core clock cycles.
pub type Cycle = u64;
