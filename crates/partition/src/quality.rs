//! Partition-quality reports: the paper's comparison columns priced
//! through the machine models.

use s2d_core::comm::CommStats;
use s2d_core::partition::SpmvPartition;
use s2d_obs::Json;
use s2d_sim::{simulate_loggp, LogGpModel, MachineModel};
use s2d_sparse::Csr;
use s2d_spmv::{simulate_plan, to_phase_specs, PlanKind, PlanPhase};

/// Quality metrics of one partition under its best legal SpMV plan —
/// what the paper's tables report per (matrix, method, K) cell, plus
/// modeled per-iteration times under both machine models.
#[derive(Clone, Debug)]
pub struct PartitionQuality {
    /// The strategy label that produced the partition.
    pub strategy: String,
    /// Number of processors.
    pub k: usize,
    /// Whether the partition satisfies the s2D property (and hence ran
    /// the fused single-phase plan).
    pub s2d: bool,
    /// Plan kind label the metrics were measured under.
    pub plan: &'static str,
    /// Total communication volume in words (the paper's λ).
    pub volume: u64,
    /// Load imbalance `max/avg − 1` (the paper's LI when ×100).
    pub load_imbalance: f64,
    /// Maximum per-processor multiply-add load.
    pub max_load: u64,
    /// Total messages per iteration across all phases.
    pub total_messages: u64,
    /// Average messages sent per processor.
    pub avg_send_msgs: f64,
    /// Maximum messages sent by one processor (the latency bottleneck).
    pub max_send_msgs: u32,
    /// Maximum words sent by one processor (the bandwidth bottleneck).
    pub max_send_volume: u64,
    /// Number of communication phases in the plan (1 for fused s2D,
    /// 2 for expand/fold or mesh-routed).
    pub comm_phases: usize,
    /// Modeled per-iteration time under the α–β–γ model (seconds).
    pub alpha_beta_time: f64,
    /// Modeled per-iteration time under the LogGP model (seconds).
    pub loggp_time: f64,
    /// Modeled speedup over serial under the α–β–γ model (the paper's
    /// `Sp` columns).
    pub speedup: f64,
}

impl PartitionQuality {
    /// Measures `p` on `a` under the best legal plan kind
    /// ([`PlanKind::auto`]: fused single-phase when the partition is
    /// s2D, two-phase otherwise) with the XE6-flavoured machine models.
    pub fn measure(a: &Csr, p: &SpmvPartition, strategy: impl Into<String>) -> Self {
        let (kind, plan) = PlanKind::build_auto(a, p);
        Self::measure_plan(a, p, kind, &plan, strategy)
    }

    /// [`PartitionQuality::measure`] under an explicit plan kind (e.g.
    /// [`PlanKind::Mesh`] to price the bounded-latency routing).
    pub fn measure_with(
        a: &Csr,
        p: &SpmvPartition,
        kind: PlanKind,
        strategy: impl Into<String>,
    ) -> Self {
        Self::measure_plan(a, p, kind, &kind.build(a, p), strategy)
    }

    /// Prices an already-built plan of kind `kind` for `(a, p)` —
    /// callers that hold the plan anyway (the CLI `analyze`) skip the
    /// rebuild the other constructors pay.
    pub fn measure_plan(
        a: &Csr,
        p: &SpmvPartition,
        kind: PlanKind,
        plan: &s2d_spmv::SpmvPlan,
        strategy: impl Into<String>,
    ) -> Self {
        let stats: CommStats = plan.comm_stats();
        let ab = simulate_plan(plan, &MachineModel::cray_xe6());
        let lg = simulate_loggp(
            plan.k,
            &to_phase_specs(plan),
            plan.total_ops(),
            &LogGpModel::cray_xe6(),
        );
        let comm_phases = plan.phases.iter().filter(|ph| matches!(ph, PlanPhase::Comm(_))).count();
        PartitionQuality {
            strategy: strategy.into(),
            k: p.k,
            s2d: p.is_s2d(a),
            plan: kind.label(),
            volume: stats.total_volume,
            load_imbalance: p.load_imbalance(),
            max_load: plan.loads().into_iter().max().unwrap_or(0),
            total_messages: stats.total_messages,
            avg_send_msgs: stats.avg_send_msgs(),
            max_send_msgs: stats.max_send_msgs(),
            max_send_volume: stats.max_send_volume(),
            comm_phases,
            alpha_beta_time: ab.parallel_time,
            loggp_time: lg.parallel_time,
            speedup: ab.speedup(),
        }
    }

    /// The quality as one JSON object. Fractional columns are rounded
    /// to fixed decimals (times to the nanosecond), so the paper's
    /// columns in `REPRODUCTION.json` do not churn in the last bits.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("strategy", self.strategy.as_str())
            .set("k", self.k)
            .set("s2d", self.s2d)
            .set("plan", self.plan)
            .set("volume", self.volume)
            .set("load_imbalance", Json::fixed(self.load_imbalance, 6))
            .set("max_load", self.max_load)
            .set("total_messages", self.total_messages)
            .set("avg_send_msgs", Json::fixed(self.avg_send_msgs, 3))
            .set("max_send_msgs", self.max_send_msgs)
            .set("max_send_volume", self.max_send_volume)
            .set("comm_phases", self.comm_phases)
            .set("alpha_beta_time", Json::fixed(self.alpha_beta_time, 9))
            .set("loggp_time", Json::fixed(self.loggp_time, 9))
            .set("speedup", Json::fixed(self.speedup, 3))
    }
}

/// Header matching [`fmt_quality_row`] for aligned table printing.
pub fn quality_header() -> String {
    format!(
        "{:<10} {:>5} {:>4} {:>9} {:>7} {:>5}/{:>4} {:>3} {:>10} {:>10} {:>7}",
        "strategy", "K", "s2d", "volume", "LI", "avg", "max", "ph", "t(ab) us", "t(lgp) us", "Sp"
    )
}

/// One aligned report row (pairs with [`quality_header`]).
pub fn fmt_quality_row(q: &PartitionQuality) -> String {
    format!(
        "{:<10} {:>5} {:>4} {:>9} {:>6.1}% {:>5.1}/{:>4} {:>3} {:>10.1} {:>10.1} {:>7.1}",
        q.strategy,
        q.k,
        if q.s2d { "yes" } else { "no" },
        q.volume,
        q.load_imbalance * 100.0,
        q.avg_send_msgs,
        q.max_send_msgs,
        q.comm_phases,
        q.alpha_beta_time * 1e6,
        q.loggp_time * 1e6,
        q.speedup,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};

    #[test]
    fn fig1_quality_is_consistent() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let q = PartitionQuality::measure(&a, &p, "fig1");
        assert!(q.s2d);
        assert_eq!(q.plan, "single_phase");
        assert_eq!(q.comm_phases, 1);
        assert!(q.volume > 0);
        assert!(q.alpha_beta_time > 0.0 && q.loggp_time > 0.0);
        assert_eq!(q.max_load, p.loads().into_iter().max().unwrap());
        // Mesh pricing routes through two phases.
        let qm = PartitionQuality::measure_with(&a, &p, PlanKind::Mesh, "fig1");
        assert_eq!(qm.comm_phases, 2);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let q = PartitionQuality::measure(&a, &p, "fig1");
        let j = Json::parse(&q.to_json().to_string()).expect("valid JSON");
        assert_eq!(j.get("strategy").and_then(Json::as_str), Some("fig1"));
        assert_eq!(j.get("volume").and_then(Json::as_u64), Some(q.volume));
        assert_eq!(j.get("s2d"), Some(&Json::Bool(true)));
        // One flat object: no field nests another container.
        let Json::Obj(fields) = &j else { panic!("an object") };
        assert!(fields.iter().all(|(_, v)| !matches!(v, Json::Obj(_) | Json::Arr(_))));
        // Rounded as `{:.9}` prints it.
        let t = j.get("alpha_beta_time").and_then(Json::as_f64).expect("a time");
        assert_eq!(t, format!("{:.9}", q.alpha_beta_time).parse::<f64>().unwrap());
    }
}
