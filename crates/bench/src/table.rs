//! Result tables: aligned stdout rendering plus CSV and JSON artifacts.

use mobieyes_telemetry::json::Value;
use std::fs;
use std::path::Path;

/// One figure's data: an x column plus one y column per series.
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure identifier, e.g. "fig1".
    pub id: String,
    /// Human title, e.g. "Server load vs number of queries".
    pub title: String,
    /// Label of the x column.
    pub xlabel: String,
    /// Label of the y values (units).
    pub ylabel: String,
    /// Series names.
    pub columns: Vec<String>,
    /// `(x, y per column)` rows. `NaN` renders as "-".
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl Table {
    pub fn new(id: &str, title: &str, xlabel: &str, ylabel: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            xlabel: xlabel.to_string(),
            ylabel: ylabel.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, ys: Vec<f64>) {
        assert_eq!(ys.len(), self.columns.len(), "row width mismatch");
        self.rows.push((x, ys));
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id, self.title));
        out.push_str(&format!("# y: {}\n", self.ylabel));
        let mut header = vec![self.xlabel.clone()];
        header.extend(self.columns.iter().cloned());
        let mut grid: Vec<Vec<String>> = vec![header];
        for (x, ys) in &self.rows {
            let mut row = vec![fmt_num(*x)];
            row.extend(ys.iter().map(|y| fmt_num(*y)));
            grid.push(row);
        }
        let widths: Vec<usize> = (0..grid[0].len())
            .map(|c| grid.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        for row in &grid {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(c, v)| format!("{:>w$}", v, w = widths[c]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes `<dir>/<id>.csv` and `<dir>/<id>.json`, creating `dir`.
    pub fn save(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let mut csv = String::new();
        csv.push_str(&self.xlabel);
        for c in &self.columns {
            csv.push(',');
            csv.push_str(c);
        }
        csv.push('\n');
        for (x, ys) in &self.rows {
            csv.push_str(&format!("{x}"));
            for y in ys {
                csv.push(',');
                csv.push_str(&format!("{y}"));
            }
            csv.push('\n');
        }
        fs::write(dir.join(format!("{}.csv", self.id)), csv)?;
        fs::write(
            dir.join(format!("{}.json", self.id)),
            self.to_json().to_string_pretty(),
        )?;
        Ok(())
    }

    /// The JSON document written next to the CSV:
    /// `{id, title, xlabel, ylabel, columns, rows: [[x, [ys]], ...]}`.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), Value::str(&self.id)),
            ("title".into(), Value::str(&self.title)),
            ("xlabel".into(), Value::str(&self.xlabel)),
            ("ylabel".into(), Value::str(&self.ylabel)),
            (
                "columns".into(),
                Value::Arr(self.columns.iter().map(Value::str).collect()),
            ),
            (
                "rows".into(),
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|(x, ys)| {
                            Value::Arr(vec![
                                Value::Num(*x),
                                Value::Arr(ys.iter().map(|y| Value::Num(*y)).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn fmt_num(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("figX", "Test", "alpha", "msgs/s", &["a", "longname"]);
        t.push(0.5, vec![1.0, 1234.5678]);
        t.push(16.0, vec![0.001234, f64::NAN]);
        let r = t.render();
        assert!(r.contains("figX"));
        assert!(r.contains("longname"));
        assert!(r.contains("-"), "NaN renders as dash");
        // Every data line has the same number of columns.
        let lines: Vec<&str> = r.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines.len(), 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_checks_width() {
        let mut t = Table::new("f", "t", "x", "y", &["a"]);
        t.push(1.0, vec![1.0, 2.0]);
    }

    #[test]
    fn save_writes_csv_and_json() {
        let mut t = Table::new("testtable_unit", "Test", "x", "y", &["a"]);
        t.push(1.0, vec![2.0]);
        let dir = std::env::temp_dir().join(format!("mobieyes-table-{}", std::process::id()));
        t.save(&dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("testtable_unit.csv")).unwrap();
        assert!(csv.starts_with("x,a\n1,2\n"));
        let json = std::fs::read_to_string(dir.join("testtable_unit.json")).unwrap();
        assert!(json.contains("\"id\": \"testtable_unit\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
