//! The paper's six spline configurations and common CLI parsing.

use pp_bsplines::{Breaks, PeriodicSplineSpace};

/// One of the six spline configurations swept in Tables IV/V and Fig. 2:
/// degree ∈ {3, 4, 5} × {uniform, non-uniform}.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplineConfig {
    /// Spline degree.
    pub degree: usize,
    /// Uniform or graded mesh.
    pub uniform: bool,
}

impl SplineConfig {
    /// All six configurations, in the paper's table order.
    pub const ALL: [SplineConfig; 6] = [
        SplineConfig::new(3, true),
        SplineConfig::new(4, true),
        SplineConfig::new(5, true),
        SplineConfig::new(3, false),
        SplineConfig::new(4, false),
        SplineConfig::new(5, false),
    ];

    /// The configuration of this degree and mesh kind.
    pub const fn new(degree: usize, uniform: bool) -> Self {
        SplineConfig { degree, uniform }
    }

    /// Label in the paper's style, e.g. `uniform (Degree 3)`.
    pub fn label(&self) -> String {
        let mesh = if self.uniform {
            "uniform"
        } else {
            "non-uniform"
        };
        format!("{mesh} (Degree {})", self.degree)
    }

    /// Build the spline space over `[0, 1)` with `n` cells. Non-uniform
    /// meshes use the graded mesh with the paper-motivated edge
    /// clustering.
    pub fn space(&self, n: usize) -> PeriodicSplineSpace {
        let breaks = if self.uniform {
            Breaks::uniform(n, 0.0, 1.0).expect("valid mesh")
        } else {
            Breaks::graded(n, 0.0, 1.0, 0.6).expect("valid mesh")
        };
        PeriodicSplineSpace::new(breaks, self.degree).expect("valid space")
    }
}

/// Common command-line arguments of the harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// Grid points along the spline dimension (the paper: 1000 or 1024).
    pub nx: usize,
    /// Batch size (the paper sweeps 100..100000).
    pub nv: usize,
    /// Timed iterations per measurement (the paper: 10).
    pub iters: usize,
}

/// Parse up to `defaults.len()` of the `[nx] [nv] [iters]` positional
/// arguments over `defaults`: a missing argument keeps its default, a
/// field past `defaults` is 0; an unparsable argument, or one past
/// `defaults`, is an error naming it.
pub fn parse_positional(
    args: impl IntoIterator<Item = String>,
    defaults: &[usize],
) -> Result<BenchArgs, String> {
    let mut values = [0; 3];
    values[..defaults.len()].copy_from_slice(defaults);
    for (i, arg) in args.into_iter().enumerate() {
        if i >= defaults.len() {
            return Err(format!("surplus argument `{arg}`"));
        }
        values[i] = arg
            .parse()
            .map_err(|_| format!("`{arg}` is not a non-negative integer"))?;
    }
    let [nx, nv, iters] = values;
    Ok(BenchArgs { nx, nv, iters })
}

/// Print `error` and the usage line `usage: <program> <operands>` on
/// stderr, then exit with status 2.
pub fn usage_exit(operands: &str, error: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    let name = program.rsplit('/').next().unwrap_or_default();
    eprintln!("error: {error}\nusage: {name} {operands}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_configs_with_labels() {
        assert_eq!(SplineConfig::ALL.len(), 6);
        assert_eq!(SplineConfig::ALL[0].label(), "uniform (Degree 3)");
        assert_eq!(SplineConfig::ALL[5].label(), "non-uniform (Degree 5)");
    }

    #[test]
    fn spaces_construct_for_all_configs() {
        for c in SplineConfig::ALL {
            let s = c.space(32);
            assert_eq!(s.num_basis(), 32);
            assert_eq!(s.degree(), c.degree);
            assert_eq!(s.breaks().is_uniform(), c.uniform);
        }
    }

    fn args(list: &[&str]) -> Result<BenchArgs, String> {
        parse_positional(list.iter().map(|s| s.to_string()), &[1000, 20_000, 5])
    }

    #[test]
    fn missing_arguments_keep_their_defaults() {
        let want = |nx, nv, iters| Ok(BenchArgs { nx, nv, iters });
        assert_eq!(args(&[]), want(1000, 20_000, 5));
        assert_eq!(args(&["256"]), want(256, 20_000, 5));
        assert_eq!(args(&["256", "4096", "3"]), want(256, 4096, 3));
    }

    #[test]
    fn malformed_arguments_are_errors() {
        assert_eq!(
            args(&["1000", "1e5"]),
            Err("`1e5` is not a non-negative integer".into())
        );
        assert!(args(&["-3"]).is_err());
        assert!(args(&[""]).is_err());
        assert_eq!(
            args(&["1", "2", "3", "4"]),
            Err("surplus argument `4`".into())
        );
        let table1 = parse_positional(["1000".into(), "5".into()], &[64]);
        assert_eq!(table1, Err("surplus argument `5`".into()));
        let table2 = parse_positional(["1000".into()], &[]);
        assert_eq!(table2, Err("surplus argument `1000`".into()));
    }
}
