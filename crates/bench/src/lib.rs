//! # gretel-bench — experiment harnesses
//!
//! Shared support for the binaries that regenerate every table and figure
//! of the paper's evaluation (see DESIGN.md §3 for the index) and for the
//! Criterion micro-benchmarks.

#![warn(missing_docs)]

pub mod precision;
pub mod results;
pub mod workload;

use gretel_core::{CharacterizationStats, FingerprintLibrary};
use gretel_model::{Catalog, TempestSuite};
use gretel_sim::Deployment;
use std::sync::Arc;

/// Everything the experiments share: the catalog, the generated suite,
/// the deployment and the characterized fingerprint library.
pub struct Workbench {
    /// The OpenStack API catalog.
    pub catalog: Arc<Catalog>,
    /// The 1200-test synthetic Tempest suite.
    pub suite: TempestSuite,
    /// The 7-node deployment.
    pub deployment: Deployment,
    /// Fingerprints learned from the suite (Algorithm 1 over 2 isolated
    /// runs per test).
    pub library: FingerprintLibrary,
    /// Raw event counts from characterization (Table 1's Events columns).
    pub char_stats: Vec<CharacterizationStats>,
}

impl Workbench {
    /// Build the full workbench (≈200 ms in release mode).
    pub fn new(seed: u64) -> Workbench {
        let catalog = Catalog::openstack();
        let suite = TempestSuite::generate(catalog.clone(), seed);
        let deployment = Deployment::standard();
        let (library, char_stats) = FingerprintLibrary::characterize(
            catalog.clone(),
            suite.specs(),
            &deployment,
            2,
            seed ^ 0xF1F1,
        );
        Workbench { catalog, suite, deployment, library, char_stats }
    }

    /// A reduced workbench for unit tests (`per_category` tests per
    /// category).
    pub fn small(seed: u64, per_category: usize) -> Workbench {
        let catalog = Catalog::openstack();
        let counts: Vec<(gretel_model::Category, usize)> = gretel_model::Category::ALL
            .iter()
            .map(|&c| (c, per_category))
            .collect();
        let suite = TempestSuite::generate_with_counts(catalog.clone(), seed, &counts);
        let deployment = Deployment::standard();
        let (library, char_stats) = FingerprintLibrary::characterize(
            catalog.clone(),
            suite.specs(),
            &deployment,
            2,
            seed ^ 0xF1F1,
        );
        Workbench { catalog, suite, deployment, library, char_stats }
    }
}

/// Parse `--key value` style arguments with a default. A flag whose
/// value is missing or does not parse is a usage error: the process
/// exits with status 2, naming the flag and the bad value.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The value of `name` in `args` (`--key value` style), or `default` when
/// the flag is absent. A present flag without a value, or with one that
/// does not parse as `T`, is an error naming the flag and the value.
pub fn parse_arg<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == name) else { return Ok(default) };
    let Some(value) = args.get(i + 1) else { return Err(format!("{name} needs a value")) };
    value.parse().map_err(|_| format!("{name}: cannot parse {value:?}"))
}

/// Whether a bare flag is present.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_values_parse_or_fall_back_to_the_default() {
        let argv = args(&["bin", "--seed", "7", "--smoke"]);
        assert_eq!(parse_arg(&argv, "--seed", 42u64), Ok(7));
        assert_eq!(parse_arg(&argv, "--messages", 200_000usize), Ok(200_000));
    }

    #[test]
    fn bad_or_missing_flag_values_are_errors_naming_flag_and_value() {
        let err = parse_arg(&args(&["bin", "--messages", "abc"]), "--messages", 200_000usize)
            .unwrap_err();
        assert!(err.contains("--messages") && err.contains("abc"), "{err}");
        let err = parse_arg(&args(&["bin", "--seed"]), "--seed", 42u64).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn small_workbench_builds_and_characterizes() {
        let wb = Workbench::small(3, 4);
        assert_eq!(wb.suite.len(), 20);
        assert_eq!(wb.library.len(), 20);
        assert!(wb.library.fp_max() > 0);
        assert_eq!(wb.char_stats.len(), 20);
    }
}
