//! The result line: one JSON object with the run's checks and metrics.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name: a letter or digit, then letters, digits, `_`, `.` and `-`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters, starting
/// with a letter or digit, made of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: 1 to 16 characters made of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// The result object. Fails on an invalid or repeated name or unit, or a
/// value JSON cannot hold.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) || metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("bad or repeated metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("bad unit {:?} of {}", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_use_only_the_allowed_characters() {
        assert!(valid_name("serving.des_self_s"));
        assert!(valid_name("router.weights_ns.carbon-greedy"));
        assert!(valid_name("0x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn units_use_only_the_allowed_characters() {
        for u in ["ms", "s", "1/s", "count", "%", "g/kreq", "MiB"] {
            assert!(valid_unit(u), "{u}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("g per kreq"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            10,
            0,
            &[
                Metric::new("wall_s", 1.25, "s"),
                Metric::new("n", 3.0, "count"),
            ],
        )
        .expect("valid");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        let dup = [Metric::new("a", 1.0, "s"), Metric::new("a", 2.0, "s")];
        assert!(result_json(true, 1, 0, &dup).is_err());
        assert!(result_json(true, 1, 0, &[Metric::new("a", f64::NAN, "s")]).is_err());
        assert!(result_json(true, 1, 0, &[Metric::new("a b", 1.0, "s")]).is_err());
    }
}
