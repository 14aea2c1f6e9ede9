//! # plc-analysis — analytical models of CSMA/CA performance
//!
//! The "Analysis" curves of the paper's evaluation. The models differ
//! only in their modelling assumptions, and each assumption has one
//! solver:
//!
//! * [`meanfield::MeanFieldModel`] — the slot-decoupling assumption
//!   (every slot independently busy with one probability), following the
//!   companion analysis the report cites as reference \[5\] (Vlachou,
//!   Banchs, Herzen, Thiran — ICNP 2014): a per-stage backoff counter +
//!   deferral counter + stage chain, solved for one or several station
//!   classes by a damped fixed-point iteration with convergence
//!   diagnostics. Predicts the per-slot attempt rate τ, the collision
//!   probability (`1 − (1 − τ)^(N−1)` for one class) and normalized
//!   throughput; it is the engine behind the `Backend::MeanField`
//!   simulation backend in `plc-sim` and the boosting screen.
//! * [`coupled::CoupledModel`] — the primary "Analysis" curve: a
//!   champion-conditioned, residual-tracking round model that lands on
//!   Figure 2 at every N (validated within ±0.01 of the simulator).
//! * [`round_model::RoundModel`] — a simpler round-based mean-field
//!   (fresh redraws, i.i.d. stations); kept as a comparison point in the
//!   model-assumptions experiment alongside the slot-decoupled model.
//! * [`cano_malone::CanoMaloneModel`] — deterministic-deferral reference
//!   model (Cano & Malone style), the independent second opinion of the
//!   backend cross-validation suite.
//! * [`bianchi::BianchiModel`] — the classic 802.11 DCF fixed point, both
//!   as the comparison baseline and as a closed-form cross-check of the
//!   stage-chain machinery (disable the deferral counter and the two
//!   coincide).
//! * [`drift::DriftModel`] — drift ODE for the transient stage-occupancy
//!   dynamics (ToN extension), plus the access-delay distribution of the
//!   mean-field backend.
//! * [`throughput`] — slot-structure throughput/delay formulas shared by
//!   the models.
//! * [`boost`] — [`screen_schedule`], the analytic screen of one (CW, DC)
//!   table that the `plc-boost` optimizer ranks candidate spaces with.
//!
//! Everything is deterministic, allocation-light and fast, so whole
//! parameter sweeps run interactively. Over the 275 screen evaluations
//! of the `plc-boost` default space and portfolio (2-vCPU x86-64 host,
//! release build) one fixed-point solve takes about 30 µs at the median
//! and 4–5 ms at the worst, and one delay walk about 0.1 ms at the
//! median and 4 ms at the worst.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bianchi;
pub mod boost;
pub mod cano_malone;
pub mod coupled;
pub mod drift;
pub mod math;
pub mod meanfield;
pub mod round_model;
pub mod throughput;

pub use bianchi::{BianchiFixedPoint, BianchiModel};
pub use boost::{screen_schedule, ScheduleScreen};
pub use cano_malone::{CanoMaloneFixedPoint, CanoMaloneModel};
pub use coupled::{CoupledFixedPoint, CoupledModel};
pub use drift::{delay_summary, DelayDistribution, DelaySummary, DriftModel, DriftTrajectory};
pub use meanfield::{
    gamma_tolerance, throughput_tolerance, ClassSpec, MeanFieldModel, MeanFieldSolution,
    SolverDiagnostics, SolverOptions,
};
pub use round_model::{RoundFixedPoint, RoundModel};
pub use throughput::{normalized_throughput, SlotProbabilities};
