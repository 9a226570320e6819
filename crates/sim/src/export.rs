//! CSV export of experiment series — the raw data behind each figure, in
//! a form any plotting tool ingests.

use crate::experiments::{BudgetedMonth, Fig1, Fig10, Fig3, Fig4};
use crate::metrics::MonthlyReport;
use std::fmt::Write as _;

/// Figure 1 as CSV: `load_mw,price_b,price_c,price_d`.
pub fn fig1_csv(f: &Fig1) -> String {
    let mut out = String::from("load_mw,price_b,price_c,price_d\n");
    if let Some((_, first)) = f.series.first() {
        for i in 0..first.len() {
            let load = first[i].0;
            let _ = write!(out, "{load}");
            for (_, s) in &f.series {
                let _ = write!(out, ",{}", s[i].1);
            }
            out.push('\n');
        }
    }
    out
}

/// Figure 3 as CSV: `hour,capping,min_only_avg,min_only_low`.
pub fn fig3_csv(f: &Fig3) -> String {
    let mut out = String::from("hour,capping,min_only_avg,min_only_low\n");
    for t in 0..f.capping.hours.len() {
        let _ = writeln!(
            out,
            "{t},{},{},{}",
            f.capping.hours[t].realized_cost,
            f.min_only_avg.hours[t].realized_cost,
            f.min_only_low.hours[t].realized_cost
        );
    }
    out
}

/// Figure 4 as CSV: `policy,capping,min_only_avg,min_only_low`.
pub fn fig4_csv(f: &Fig4) -> String {
    let mut out = String::from("policy,capping,min_only_avg,min_only_low\n");
    for (p, row) in f.bills.iter().enumerate() {
        let _ = writeln!(out, "{p},{},{},{}", row[0], row[1], row[2]);
    }
    out
}

/// A budgeted month (Figures 5/6 or 7/8) as CSV:
/// `hour,premium_offered,premium_served,ordinary_offered,ordinary_served,cost,budget`.
pub fn budgeted_month_csv(f: &BudgetedMonth) -> String {
    monthly_report_csv(&f.report)
}

/// Any monthly report as per-hour CSV.
pub fn monthly_report_csv(r: &MonthlyReport) -> String {
    let mut out = String::from(
        "hour,premium_offered,premium_served,ordinary_offered,ordinary_served,cost,budget\n",
    );
    for h in &r.hours {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            h.hour,
            h.premium_offered,
            h.premium_served,
            h.ordinary_offered,
            h.ordinary_served,
            h.realized_cost,
            h.hourly_budget.unwrap_or(f64::NAN)
        );
    }
    out
}

/// Figure 10 as CSV: `budget,premium_tput,ordinary_tput,utilization`.
pub fn fig10_csv(f: &Fig10) -> String {
    let mut out = String::from("budget,premium_tput,ordinary_tput,utilization\n");
    for &(b, prem, ord, util) in &f.rows {
        let _ = writeln!(out, "{b},{prem},{ord},{util}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;

    #[test]
    fn fig1_csv_has_header_and_rows() {
        let f = experiments::fig1();
        let csv = fig1_csv(&f);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "load_mw,price_b,price_c,price_d");
        let first = lines.next().unwrap();
        assert_eq!(first.split(',').count(), 4);
        // Every row parses as four floats.
        for line in csv.lines().skip(1) {
            for cell in line.split(',') {
                cell.parse::<f64>().unwrap();
            }
        }
    }

    #[test]
    fn monthly_csv_row_count_matches_hours() {
        use crate::metrics::{HourRecord, MonthlyReport};
        let r = MonthlyReport {
            strategy_name: "t".into(),
            monthly_budget: None,
            hours: vec![HourRecord {
                hour: 0,
                offered: 1.0,
                premium_offered: 0.8,
                ordinary_offered: 0.2,
                premium_served: 0.8,
                ordinary_served: 0.2,
                realized_cost: 5.0,
                believed_cost: 5.0,
                hourly_budget: Some(6.0),
                outcome: None,
                lambda: vec![],
                power_mw: vec![],
                price: vec![],
                trace: None,
            }],
        };
        let csv = monthly_report_csv(&r);
        assert_eq!(csv.lines().count(), 2);
        assert_eq!(csv.lines().nth(1).unwrap(), "0,0.8,0.8,0.2,0.2,5,6");
    }
}
