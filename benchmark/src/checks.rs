//! Output checks, made from outside on a run's final report. A check that
//! fails is reported with its count and fails the run; none is skipped.

use legato_runtime::{RunReport, Runtime, Service, TaskOutcome, TenantId};

/// Checks on one engine incarnation: every submitted task is accounted
/// for and correct, no consumer started before a producer finished, and
/// enclave-only tasks ran on TEE-capable devices only.
pub fn engine(rt: &Runtime, report: &RunReport, failures: &mut Vec<String>) {
    let graph = rt.graph();
    let submitted = graph.len();
    if report.placements.len() + report.failed.len() != submitted {
        failures.push(format!(
            "{} placements + {} failed do not account for {submitted} submitted tasks",
            report.placements.len(),
            report.failed.len()
        ));
    }
    if !report.is_correct() {
        failures.push(format!(
            "RunReport::is_correct() is false ({} failed)",
            report.failed.len()
        ));
    }
    let mut by_id: Vec<Option<&TaskOutcome>> = vec![None; submitted];
    for p in &report.placements {
        by_id[p.task.index()] = Some(p);
    }
    let mut early = 0usize;
    let mut outside_tee = 0usize;
    for p in &report.placements {
        let preds = graph
            .predecessors(p.task)
            .expect("placed task is in the graph");
        early += preds
            .iter()
            .filter(|q| !by_id[q.index()].is_some_and(|q| q.finish <= p.start))
            .count();
        let desc = graph
            .descriptor(p.task)
            .expect("placed task is in the graph");
        if desc.requirements.security.requires_enclave()
            && !p
                .devices
                .iter()
                .all(|&d| rt.devices()[d].spec.tee.has_enclave())
        {
            outside_tee += 1;
        }
    }
    if early > 0 {
        failures.push(format!(
            "{early} dependence edges whose consumer started before its producer finished"
        ));
    }
    if outside_tee > 0 {
        failures.push(format!(
            "{outside_tee} enclave-only tasks placed on a device without a TEE"
        ));
    }
}

/// Checks on the service's own accounting: tenant meters sum to the
/// engine's placements (over every incarnation), and admission refused
/// exactly the submissions the budgets say it should.
pub fn service(svc: &Service, placements: u64, expected_refusals: u64, failures: &mut Vec<String>) {
    let tenants = (0..svc.tenant_count() as u32).map(|t| svc.tenant_report(TenantId(t)));
    let (completed, rejections) = tenants.fold((0, 0), |(c, r), m| {
        (c + m.tasks_completed, r + m.admission_rejections)
    });
    if completed != placements {
        failures.push(format!(
            "tenant meters count {completed} completed tasks, the engine placed {placements}"
        ));
    }
    if rejections != expected_refusals {
        failures.push(format!(
            "{rejections} admission rejections, the tenant budgets imply {expected_refusals}"
        ));
    }
}
