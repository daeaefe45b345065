//! The correctness gate, run off the clock: daemon answers against
//! in-process replays through the same public functions, and cold-solve
//! throughputs against an independent Karp solve.

use lis_core::{parse_netlist, LisModel, LisSystem};
use lis_server::{Json, RequestKind};
use marked_graph::mcm::{mcm_serial, McmEngine};
use marked_graph::Ratio;

use crate::workload::{self, ColdPool, Request, Route, SWEEP_POINTS};

/// The body the daemon must answer `req` with: decode, parse, execute and
/// serialize in-process.
///
/// # Errors
///
/// A description of whichever step failed (every generated request is
/// expected to succeed).
pub fn expected_body(req: &Request) -> Result<Vec<u8>, String> {
    let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let (netlist, kind) =
        RequestKind::decode(req.route.name(), &json).map_err(|e| e.to_string())?;
    let sys = parse_netlist(&netlist).map_err(|e| e.to_string())?;
    let answer = kind.execute(&sys).map_err(|e| e.to_string())?;
    Ok(answer.to_string().into_bytes())
}

/// θ of `sys` (its practical MST) by serial Karp on the doubled model.
pub fn karp_theta(sys: &LisSystem) -> Ratio {
    mcm_serial(LisModel::doubled(sys).graph(), McmEngine::Karp)
        .map_or(Ratio::ONE, |m| m.min(Ratio::ONE))
}

fn ratio_field(body: &Json, field: &str) -> Option<Ratio> {
    let r = body.get(field)?;
    let num = r.get("num")?.as_u64()?;
    let den = r.get("den")?.as_u64()?;
    Some(Ratio::new(
        i64::try_from(num).ok()?,
        i64::try_from(den).ok()?,
    ))
}

/// Checks one cold-solve answer: byte-identical to the in-process replay,
/// and its θ equal to Karp's.
///
/// # Errors
///
/// What did not match.
pub fn check_cold(pool: &ColdPool, tag: u64, body: &[u8]) -> Result<(), String> {
    let req = pool.request(tag);
    if expected_body(&req)? != body {
        return Err(format!(
            "cold request {tag}: body differs from the in-process replay"
        ));
    }
    check_theta(req.route, body, &pool.design(tag)).map_err(|e| format!("cold request {tag}: {e}"))
}

/// Checks that the θ an `/analyze` (`practical_mst`) or `/qs`
/// (`practical_before`) answer reports for `sys` equals serial Karp's.
///
/// # Errors
///
/// What did not match.
pub fn check_theta(route: Route, body: &[u8], sys: &LisSystem) -> Result<(), String> {
    let json = Json::parse(std::str::from_utf8(body).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let field = match route {
        Route::Qs => "practical_before",
        _ => "practical_mst",
    };
    let theta = ratio_field(&json, field).ok_or_else(|| format!("no {field}"))?;
    let karp = karp_theta(sys);
    if theta != karp {
        return Err(format!("θ {theta:?} but Karp gives {karp:?}"));
    }
    Ok(())
}

/// Checks one streamed sweep: a header, [`SWEEP_POINTS`] rows in point
/// order and a done trailer, with row `sample` re-solved cold in-process
/// and byte-identical to the single-shot `/analyze` answer on that point.
///
/// # Errors
///
/// What did not match.
pub fn check_sweep(seed: u64, tag: u64, body: &[u8], sample: usize) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = text.lines().collect();
    let parse = |l: &str| Json::parse(l).map_err(|e| format!("sweep {tag}: {e}"));
    if lines.len() != SWEEP_POINTS + 2 {
        return Err(format!(
            "sweep {tag}: {} lines, want {}",
            lines.len(),
            SWEEP_POINTS + 2
        ));
    }
    let header = parse(lines[0])?;
    if header.get("points").and_then(Json::as_u64) != Some(SWEEP_POINTS as u64) {
        return Err(format!("sweep {tag}: bad header {}", lines[0]));
    }
    let trailer = parse(lines[SWEEP_POINTS + 1])?;
    if trailer.get("done").and_then(Json::as_bool) != Some(true)
        || trailer.get("rows").and_then(Json::as_u64) != Some(SWEEP_POINTS as u64)
    {
        return Err(format!("sweep {tag}: bad trailer"));
    }
    let row = parse(lines[1 + sample])?;
    if row.get("point").and_then(Json::as_u64) != Some(sample as u64) {
        return Err(format!("sweep {tag}: row {sample} out of order"));
    }
    let (mut sys, _) = workload::sweep_design(seed, tag);
    let channels: Vec<_> = sys.channel_ids().collect();
    for axis in row.get("capacities").and_then(Json::as_arr).unwrap_or(&[]) {
        let c = axis
            .get("channel")
            .and_then(Json::as_u64)
            .ok_or("axis channel")?;
        let q = axis
            .get("capacity")
            .and_then(Json::as_u64)
            .ok_or("axis capacity")?;
        let c = *channels
            .get(c as usize)
            .ok_or("axis channel out of range")?;
        sys.set_queue_capacity(c, q).map_err(|e| e.to_string())?;
    }
    let expected = Route::Analyze
        .kind()
        .execute(&sys)
        .map_err(|e| e.to_string())?
        .to_string();
    let got = row.get("result").map(Json::to_string).unwrap_or_default();
    if got != expected {
        return Err(format!(
            "sweep {tag}: row {sample} differs from a cold /analyze"
        ));
    }
    Ok(())
}

/// Runs `check` over `items` on `threads` threads and collects the errors.
pub fn check_all<T: Sync>(
    items: &[T],
    threads: usize,
    check: impl Fn(&T) -> Result<(), String> + Sync,
) -> Vec<String> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                s.spawn(|| {
                    part.iter()
                        .filter_map(|i| check(i).err())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("gate thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn karp_agrees_with_the_analyzer_on_cold_designs() {
        let pool = ColdPool::new(4);
        for k in [0, 1, 3, 259] {
            let body = expected_body(&pool.request(k)).expect("replays");
            check_cold(&pool, k, &body).expect("consistent");
        }
    }

    #[test]
    fn a_wrong_theta_fails_the_karp_check() {
        let pool = ColdPool::new(4);
        let req = pool.request(0);
        let body = String::from_utf8(expected_body(&req).expect("replays")).unwrap();
        let sys = pool.design(0);
        check_theta(req.route, body.as_bytes(), &sys).expect("consistent");
        let theta = karp_theta(&sys);
        let right = format!(
            "\"practical_mst\":{{\"num\":{},\"den\":{}}}",
            theta.numer(),
            theta.denom()
        );
        assert!(body.contains(&right), "{body}");
        let wrong = format!(
            "\"practical_mst\":{{\"num\":{},\"den\":{}}}",
            theta.numer(),
            theta.denom() + 1
        );
        let tampered = body.replace(&right, &wrong);
        assert!(check_theta(req.route, tampered.as_bytes(), &sys).is_err());
    }

    #[test]
    fn a_corrupted_body_fails_the_gate() {
        let pool = ColdPool::new(4);
        let mut body = expected_body(&pool.request(0)).expect("replays");
        body.push(b' ');
        assert!(check_cold(&pool, 0, &body).is_err());
    }
}
