//! Plain-text renderers producing paper-style tables.

use crate::interfaces::{RemainingRow, TABLE4};
use crate::loc::{LocRow, TABLE2_PRINTED_TOTAL};
use crate::popularity::{weighted_average, PopularityRow};
use crate::summary::Table1;

/// Renders Table 1.
pub fn render_table1(t: &Table1) -> String {
    let mut s = String::new();
    s.push_str("Table 1. Summary of results.\n");
    s.push_str(&format!(
        "  Net lines of code de-privileged:                         {}\n",
        t.net_loc_deprivileged
    ));
    s.push_str(&format!(
        "  Deployed systems that can eliminate the setuid bit:      {:.1}%\n",
        t.systems_covered_pct
    ));
    s.push_str(&format!(
        "  Historical exploits unprivileged on Protego:             {}/{}\n",
        t.exploits_defeated.0, t.exploits_defeated.1
    ));
    s.push_str(&format!(
        "  Performance overheads:                                   <= {:.1}%\n",
        t.max_overhead_pct
    ));
    s.push_str(&format!(
        "  System calls changed:                                    {}\n",
        t.syscalls_changed
    ));
    s
}

/// Renders Table 2.
pub fn render_table2(rows: &[LocRow]) -> String {
    let mut s = String::new();
    s.push_str("Table 2. Lines of code written or changed in Protego.\n");
    s.push_str(&format!("  {:<28} {:>7}\n", "Component", "Lines"));
    for r in rows {
        s.push_str(&format!("  {:<28} {:>7}\n", r.component, r.lines));
    }
    let sum: i64 = rows.iter().map(|r| r.lines).sum();
    s.push_str(&format!(
        "  {:<28} {:>7}   (paper prints {})\n",
        "Row sum", sum, TABLE2_PRINTED_TOTAL
    ));
    s
}

/// Renders Table 3.
pub fn render_table3(rows: &[PopularityRow]) -> String {
    let mut s = String::new();
    s.push_str("Table 3. Percent of systems installing setuid-to-root packages.\n");
    s.push_str(&format!(
        "  {:<20} {:>10} {:>10} {:>10}\n",
        "Package", "Ubuntu(%)", "Debian(%)", "Wt.Avg(%)"
    ));
    for r in rows {
        s.push_str(&format!(
            "  {:<20} {:>10.2} {:>10.2} {:>10.2}\n",
            r.package,
            r.ubuntu_pct,
            r.debian_pct,
            weighted_average(r.ubuntu_pct, r.debian_pct)
        ));
    }
    s
}

/// Renders Table 4 (abbreviated columns).
pub fn render_table4() -> String {
    let mut s = String::new();
    s.push_str("Table 4. System abstractions used by setuid utilities.\n");
    for r in TABLE4 {
        s.push_str(&format!("  interface: {}\n", r.interface));
        s.push_str(&format!("    used by:   {}\n", r.used_by));
        s.push_str(&format!("    approach:  {}\n", r.approach));
        if !r.hooks.is_empty() {
            s.push_str(&format!("    hooks:     {}\n", r.hooks.join(", ")));
        }
    }
    s
}

/// Renders Table 8.
pub fn render_table8(rows: &[RemainingRow]) -> String {
    let mut s = String::new();
    s.push_str("Table 8. Interfaces used by the remaining setuid binaries.\n");
    s.push_str(&format!(
        "  {:<30} {:>8}  {}\n",
        "Interface", "Binaries", "Status"
    ));
    for r in rows {
        s.push_str(&format!(
            "  {:<30} {:>8}  {}\n",
            r.interface,
            r.binaries,
            if r.addressed {
                "addressed by Protego"
            } else {
                "future work"
            }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interfaces::TABLE8;
    use crate::loc::TABLE2;
    use crate::popularity::TABLE3;
    use crate::summary::{table1, MeasuredInputs};

    #[test]
    fn renders_contain_key_cells() {
        let t1 = render_table1(&table1(MeasuredInputs {
            exploits_escalated_legacy: 40,
            exploits_escalated_protego: 0,
            exploits_total: 40,
            max_overhead_pct: 7.4,
        }));
        assert!(t1.contains("40/40"));
        assert!(t1.contains("89.5%") || t1.contains("89.4%") || t1.contains("89.6%"));

        let t2 = render_table2(TABLE2);
        assert!(t2.contains("Protego LSM module"));
        assert!(t2.contains("1200"));

        let t3 = render_table3(TABLE3);
        assert!(t3.contains("mount"));
        assert!(t3.contains("99.99"));

        let t4 = render_table4();
        assert!(t4.contains("sb_mount"));

        let t8 = render_table8(TABLE8);
        assert!(t8.contains("future work"));
    }
}
