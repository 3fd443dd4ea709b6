//! Multi-tenant isolation integration tests: per-tenant pipeline
//! arbitration on the Lauberhorn NIC, SLO ledgers in the driver, and
//! tenant-scoped fault containment — plus the zero-perturbation
//! guarantee that an unarmed tenancy/fault plan changes nothing.

use lauberhorn_rpc::sim_lauberhorn::LauberhornSimConfig;
use lauberhorn_rpc::{LauberhornSim, ServerStack, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::{
    FaultPlan, OverloadConfig, SimDuration, TenancyConfig, TenantFaultSpec, TenantSpec,
};
use lauberhorn_workload::SizeDist;

const TENANTS: usize = 8;

fn services() -> Vec<ServiceSpec> {
    ServiceSpec::uniform(TENANTS, 1000, 32)
}

fn tenancy(enforce: bool) -> TenancyConfig {
    let specs: Vec<TenantSpec> = (0..TENANTS as u16)
        .map(|t| TenantSpec::new(t, 1, SimDuration::from_us(200)).with_rate(40_000, 32))
        .collect();
    if enforce {
        TenancyConfig::enforcing(specs)
    } else {
        TenancyConfig::observe_only(specs)
    }
}

fn workload(seed: u64) -> WorkloadSpec {
    WorkloadSpec::open_poisson(
        60_000.0,
        TENANTS,
        0.4,
        SizeDist::Fixed { bytes: 64 },
        6,
        seed,
    )
}

#[test]
fn enforcing_tenancy_completes_and_exports_per_tenant_ledgers() {
    let mut sim = LauberhornSim::new(LauberhornSimConfig::enzian(4), services());
    let wl = workload(11).with_overload(OverloadConfig::drop_tail(64).with_tenancy(tenancy(true)));
    let r = sim.run(&wl);
    assert!(r.completed > 200, "only {} completed", r.completed);

    // The NIC pipeline actually saw traffic, per tenant and in total.
    let admitted = r
        .metrics
        .get_counter("nic-lauberhorn.tenant.admitted")
        .expect("aggregate pipeline counter");
    assert!(admitted > 0);
    for t in 0..TENANTS as u16 {
        assert!(
            r.metrics
                .get_counter(&format!("nic-lauberhorn.tenant.admitted.s{t}"))
                .is_some(),
            "missing per-tenant admitted counter for tenant {t}"
        );
    }

    // The driver scored every tenant against its SLO.
    assert_eq!(
        r.metrics.get_counter("rpc.tenant.count"),
        Some(TENANTS as u64)
    );
    let met = r
        .metrics
        .get_counter("rpc.tenant.slo_met")
        .expect("slo_met");
    assert!(met > 0, "no tenant met its SLO on an uncontended run");
}

#[test]
fn observe_only_tenancy_scores_slos_without_touching_the_nic() {
    let mut sim = LauberhornSim::new(LauberhornSimConfig::enzian(4), services());
    let wl = workload(11)
        .with_overload(OverloadConfig::unbounded_baseline().with_tenancy(tenancy(false)));
    let r = sim.run(&wl);
    assert!(r.completed > 200, "only {} completed", r.completed);

    // SLO ledgers are present (the baseline arm is scored too)...
    assert_eq!(
        r.metrics.get_counter("rpc.tenant.count"),
        Some(TENANTS as u64)
    );
    // ...but the NIC pipeline was never armed.
    assert_eq!(
        r.metrics.get_counter("nic-lauberhorn.tenant.admitted"),
        None,
        "observe-only tenancy must not arm the NIC pipeline"
    );
}

#[test]
fn a_disabled_tenant_fault_spec_is_zero_perturbation() {
    let base = {
        let mut sim = LauberhornSim::new(LauberhornSimConfig::enzian(4), services());
        sim.run(&workload(23))
    };
    let unarmed = {
        let mut sim = LauberhornSim::new(LauberhornSimConfig::enzian(4), services());
        let mut faults = FaultPlan::none();
        faults.tenant = Some(TenantFaultSpec {
            tenant: 0,
            malformed: 0.0,
            storm_extra: 0,
        });
        sim.run(&workload(23).with_faults(faults))
    };
    assert_eq!(
        base.digest(),
        unarmed.digest(),
        "a disabled tenant fault spec must not perturb the run"
    );
}

#[test]
fn tenant_storm_duplicates_are_absorbed_by_at_most_once() {
    let mut sim = LauberhornSim::new(LauberhornSimConfig::enzian(4), services());
    let mut faults = FaultPlan::none();
    faults.tenant = Some(TenantFaultSpec {
        tenant: 0,
        malformed: 0.05,
        storm_extra: 3,
    });
    let wl = workload(37)
        .with_faults(faults)
        .with_overload(OverloadConfig::drop_tail(64).with_tenancy(tenancy(true)));
    let r = sim.run(&wl);

    let storm = r
        .metrics
        .get_counter("rpc.tenant.fault.storm_extra")
        .expect("storm bookkeeping");
    assert!(storm > 0, "the storm never fired");
    // Duplicate transmissions with the same request id must be
    // deduplicated server-side: at-most-once survives the storm.
    assert_eq!(r.faults.dup_executions, 0, "at-most-once violated");
    // Victim tenants keep completing despite tenant 0's storm.
    for t in 1..TENANTS as u16 {
        let completed = r
            .metrics
            .get_counter(&format!("rpc.tenant.completed.s{t}"))
            .unwrap_or(0);
        assert!(completed > 0, "tenant {t} starved by tenant 0's storm");
    }
}
