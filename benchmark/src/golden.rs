//! Golden simulated results: `benchmark/golden.json` pins, per workload
//! at seeds 42 and 7, every value that is exact per seed. Floats are
//! stored as bit patterns so the comparison is bit for bit. `bless` is
//! the only writer.

use crate::json::Json;
use crate::rep::Digest;
use crate::traced::Values;

pub const PATH: &str = "benchmark/golden.json";
pub const SEEDS: [u64; 2] = [42, 7];

/// The exact end-to-end values of a rep.
pub fn exact_e2e(d: &Digest) -> Values {
    vec![
        ("sim_makespan_s", d.makespan),
        ("sim_energy_j", d.energy),
        ("sim_p99_latency_s", d.p99),
        ("completed_share", d.completed_share()),
        ("completed", d.completed as f64),
    ]
}

fn bits(v: f64) -> String {
    format!("{:#018x}", v.to_bits())
}

pub fn section(values: &[(&'static str, f64)]) -> Json {
    Json::obj(values.iter().map(|&(k, v)| (k, Json::str(bits(v)))))
}

pub struct Golden(Json);

impl Golden {
    pub fn load() -> Result<Golden, String> {
        let text = std::fs::read_to_string(PATH)
            .map_err(|e| format!("{PATH}: {e} (run from the repository root)"))?;
        Json::parse(&text)
            .map(Golden)
            .map_err(|e| format!("{PATH}: {e}"))
    }

    /// Compare `values` with the pinned `section` (`"e2e"` or
    /// `"layers"`) of a workload at a pinned seed; returns one message
    /// per mismatch. A pinned seed with no entry is a mismatch too.
    pub fn check(
        &self,
        workload: &str,
        seed: u64,
        section: &str,
        values: &[(&'static str, f64)],
    ) -> Vec<String> {
        let pinned = self
            .0
            .get(workload)
            .and_then(|w| w.get(&seed.to_string()))
            .and_then(|s| s.get(section));
        let Some(pinned) = pinned else {
            return vec![format!(
                "golden: no `{section}` entry for {workload} at seed {seed}; run `bless`"
            )];
        };
        values
            .iter()
            .filter_map(|&(name, v)| {
                let want = pinned.get(name).and_then(Json::as_str);
                (want != Some(bits(v).as_str())).then(|| {
                    format!(
                        "golden: {workload} seed {seed} {name} = {v} ({}), pinned {}",
                        bits(v),
                        want.unwrap_or("nothing")
                    )
                })
            })
            .collect()
    }
}
