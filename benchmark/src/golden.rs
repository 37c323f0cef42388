//! The golden table: FNV-64 digests of each workload's deterministic
//! output (`benchmark/golden.json`), keyed by `<sizes>/<workload>` and
//! seed. Sweeps pin their per-point JSONL; `ingest` pins the image
//! checksum. Seeds without an entry are checked for self-consistency only.

use std::collections::BTreeMap;

use minnow_bench::json_read::Json;

/// Schema identifier of `golden.json`.
pub const GOLDEN_SCHEMA: &str = "minnow-benchmark-golden/v1";

/// Parsed golden digests.
#[derive(Debug, Clone, Default)]
pub struct Golden {
    digests: BTreeMap<(String, u64), u64>,
}

impl Golden {
    /// The table committed beside the benchmark.
    pub fn embedded() -> Golden {
        Golden::parse(include_str!("../golden.json")).expect("benchmark/golden.json parses")
    }

    /// Parses a golden document:
    /// `{"schema": ..., "digests": {"<case>": {"<seed>": "<hex>"}}}`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed part.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = Json::parse(text)?;
        let schema = doc.str_field("schema")?;
        if schema != GOLDEN_SCHEMA {
            return Err(format!(
                "golden schema `{schema}`, expected `{GOLDEN_SCHEMA}`"
            ));
        }
        let Some(Json::Object(cases)) = doc.get("digests") else {
            return Err("missing `digests` object".into());
        };
        let mut digests = BTreeMap::new();
        for (case, seeds) in cases {
            let Json::Object(seeds) = seeds else {
                return Err(format!("`{case}` is not an object"));
            };
            for (seed, hex) in seeds {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("`{case}`: bad seed `{seed}`"))?;
                let hex = hex
                    .as_str()
                    .ok_or_else(|| format!("`{case}`/{seed}: not a string"))?;
                let digest = u64::from_str_radix(hex, 16)
                    .map_err(|_| format!("`{case}`/{seed}: bad digest `{hex}`"))?;
                digests.insert((case.clone(), seed), digest);
            }
        }
        Ok(Golden { digests })
    }

    /// The pinned digest for `case` at `seed`, if any.
    pub fn get(&self, case: &str, seed: u64) -> Option<u64> {
        self.digests.get(&(case.to_string(), seed)).copied()
    }

    /// Replaces one entry (lets tests plant a wrong digest).
    pub fn set(&mut self, case: &str, seed: u64, digest: u64) {
        self.digests.insert((case.to_string(), seed), digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rejects() {
        let g = Golden::parse(
            r#"{"schema":"minnow-benchmark-golden/v1","digests":{"full/fig16":{"42":"00000000000000ff"}}}"#,
        )
        .unwrap();
        assert_eq!(g.get("full/fig16", 42), Some(255));
        assert_eq!(g.get("full/fig16", 7), None);
        assert!(Golden::parse(r#"{"schema":"other","digests":{}}"#).is_err());
        assert!(Golden::parse(
            r#"{"schema":"minnow-benchmark-golden/v1","digests":{"x":{"1":"zz"}}}"#
        )
        .is_err());
    }

    #[test]
    fn embedded_table_parses() {
        let g = Golden::embedded();
        for case in ["full/fig16", "full/fig15", "full/ingest"] {
            for seed in [42, 7, 1234] {
                assert!(
                    g.get(case, seed).is_some(),
                    "{case} seed {seed} has no golden"
                );
            }
        }
    }
}
