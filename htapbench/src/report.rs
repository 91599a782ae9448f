//! The result line: one JSON object, the last line of standard output.

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name from the catalogue.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed and the run was valid.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// The reported metrics, in catalogue order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Render as one JSON line; `Err` if a name or unit is invalid or
    /// repeated, or a value is not finite.
    pub fn to_json(&self) -> Result<String, String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut body = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !valid_name(m.name) || !valid_unit(m.unit) {
                return Err(format!(
                    "invalid metric name or unit: {} [{}]",
                    m.name, m.unit
                ));
            }
            if !seen.insert(m.name) {
                return Err(format!("metric reported twice: {}", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            body.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}
