//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p tdsql-bench --bin figures            # everything
//! cargo run --release -p tdsql-bench --bin figures -- 10e 11  # a subset
//! cargo run --release -p tdsql-bench --bin figures -- capacity sim des
//! cargo run --release -p tdsql-bench --bin figures -- --check
//! ```
//!
//! Output goes to stdout and, for the Fig. 7/8/10 data, to CSV files under
//! `results/`. `--check` regenerates the default set and the cross-checks in
//! memory, compares them with the committed `results/figures_output.txt`,
//! `results/*.csv` and `results/figures_crosschecks.txt`, writes nothing,
//! and exits 1 naming the first differing line. An unknown argument exits 2.

use std::fmt::{self, Write as _};
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use tdsql_costmodel::device::DeviceProfile;
use tdsql_costmodel::optimum;
use tdsql_costmodel::ranking;
use tdsql_costmodel::sweep;
use tdsql_exposure::coefficient::{epsilon_ndet, exposure_coefficient};
use tdsql_exposure::fig7;
use tdsql_exposure::schemes::ColumnScheme;
use tdsql_exposure::zipf;

const RESULTS: &str = "results";
/// Where `figures` with no argument writes its stdout.
const DEFAULT_OUTPUT: &str = "figures_output.txt";
/// Where `figures -- capacity sim des` writes its stdout.
const CROSSCHECKS: &str = "figures_crosschecks.txt";
const CROSSCHECK_ARGS: [&str; 3] = ["capacity", "sim", "des"];

const FIG10: [&str; 10] = [
    "10a", "10b", "10c", "10d", "10e", "10f", "10g", "10h", "10i", "10j",
];
/// Section names besides `FIG10`; `sim` and `des` (real protocol runs)
/// print only when named.
const SECTIONS: [&str; 13] = [
    "7", "fig7", "8", "fig8", "9", "fig9", "10", "11", "fig11", "alpha", "capacity", "sim", "des",
];

/// One invocation's output: the text for stdout and the CSV files (by file
/// name) for `results/`.
#[derive(Default)]
struct Rendered {
    text: String,
    csvs: Vec<(String, String)>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--check"] {
        return if check() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let ids: Vec<&str> = args.iter().map(|a| a.trim_start_matches("--")).collect();
    let known = |id: &str| SECTIONS.contains(&id) || FIG10.contains(&id);
    if let Some(bad) = args.iter().find(|a| !known(a.trim_start_matches("--"))) {
        eprintln!(
            "figures: unknown argument `{bad}`; known: {} {}, or --check alone",
            SECTIONS.join(" "),
            FIG10.join(" ")
        );
        return ExitCode::from(2);
    }
    let r = render(&ids);
    print!("{}", r.text);
    if !r.csvs.is_empty() {
        fs::create_dir_all(RESULTS).expect("create results dir");
    }
    for (name, body) in &r.csvs {
        fs::write(Path::new(RESULTS).join(name), body).expect("write csv");
    }
    ExitCode::SUCCESS
}

/// Render the sections `ids` select: no id selects every section except
/// the real-protocol runs `sim` and `des`.
fn render(ids: &[&str]) -> Rendered {
    let mut r = Rendered::default();
    render_into(&mut r, ids).expect("writing to a String cannot fail");
    r
}

fn render_into(r: &mut Rendered, ids: &[&str]) -> fmt::Result {
    let want = |id: &str| ids.is_empty() || ids.contains(&id);
    if want("7") || want("fig7") {
        fig7(&mut r.text)?;
    }
    if want("8") || want("fig8") {
        fig8(&mut r.text, &mut r.csvs)?;
    }
    if want("9") || want("fig9") {
        fig9(&mut r.text)?;
    }
    for id in FIG10 {
        if want(id) || want("10") {
            fig10(&mut r.text, &mut r.csvs, id)?;
        }
    }
    if want("11") || want("fig11") {
        fig11(&mut r.text)?;
    }
    if want("alpha") {
        alpha(&mut r.text)?;
    }
    if want("capacity") {
        capacity(&mut r.text)?;
    }
    if ids.contains(&"sim") {
        sim_vs_model(&mut r.text)?;
    }
    if ids.contains(&"des") {
        des_elasticity(&mut r.text)?;
    }
    Ok(())
}

/// Regenerate both committed sets in memory and compare them with
/// `results/`; report every differing file on stderr.
fn check() -> bool {
    let results = Path::new(RESULTS);
    let default = render(&[]);
    let mut ok = same(&results.join(DEFAULT_OUTPUT), &default.text);
    for (name, body) in &default.csvs {
        ok &= same(&results.join(name), body);
    }
    for entry in fs::read_dir(results).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") && !default.csvs.iter().any(|(n, _)| *n == name) {
            eprintln!("{RESULTS}/{name}: committed but no longer produced by `figures`");
            ok = false;
        }
    }
    ok &= same(&results.join(CROSSCHECKS), &render(&CROSSCHECK_ARGS).text);
    if ok {
        println!("figures --check: results/ matches the regenerated figures");
    }
    ok
}

/// Is the committed file at `path` exactly `fresh`? Otherwise name its
/// first differing line.
fn same(path: &Path, fresh: &str) -> bool {
    let committed = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: cannot read committed file: {e}", path.display());
            return false;
        }
    };
    if committed == fresh {
        return true;
    }
    let equal = committed
        .lines()
        .zip(fresh.lines())
        .take_while(|(a, b)| a == b);
    let line = equal.count();
    let nth = |s: &str| s.lines().nth(line).unwrap_or("<end of file>").to_owned();
    eprintln!(
        "{}:{}: differs\n  committed:   {}\n  regenerated: {}",
        path.display(),
        line + 1,
        nth(&committed),
        nth(fresh)
    );
    false
}

fn hr(o: &mut String, title: &str) -> fmt::Result {
    writeln!(
        o,
        "\n==== {title} {}",
        "=".repeat(68usize.saturating_sub(title.len()))
    )
}

fn fig7(o: &mut String) -> fmt::Result {
    hr(o, "Fig. 7 — encryptions and IC tables (Accounts example)")?;
    let table = fig7::accounts_table();
    writeln!(o, "plaintext Accounts table ({} rows):", table.n_rows())?;
    for i in 0..table.n_rows() {
        let row: Vec<&str> = table.columns.iter().map(|c| c.cells[i].as_str()).collect();
        writeln!(o, "  {}", row.join(" | "))?;
    }
    writeln!(
        o,
        "\n{:<22} {:>12} {:>18}",
        "scheme", "epsilon", "P(<Alice,200>)"
    )?;
    for row in fig7::fig7_rows() {
        writeln!(
            o,
            "{:<22} {:>12.6} {:>18.6}",
            row.scheme, row.report.epsilon, row.p_alice_200
        )?;
    }
    writeln!(o, "\nIC table under Det_Enc (Fig. 7a):")?;
    let ic = tdsql_exposure::ic_table::IcTable::compute(
        &table,
        &[ColumnScheme::Det, ColumnScheme::Det, ColumnScheme::Det],
    );
    write!(o, "{}", ic.render())?;
    writeln!(
        o,
        "\npaper's takeaway: Det_Enc discloses the association with certainty;\n\
         nDet_Enc (S_Agg) is the floor 1/(N1·N2·N3)."
    )
}

fn fig8(o: &mut String, csvs: &mut Vec<(String, String)>) -> fmt::Result {
    hr(o, "Fig. 8 — information exposure among protocols")?;
    // A Zipf-skewed single-attribute database (G = 100 groups, ~5000 rows),
    // the setting of the collision-factor experiment of [11].
    let table = zipf::zipf_column(100, 5000, 1.0, 42);
    let distinct = table.columns[0].distinct();
    let eps = |s: ColumnScheme| exposure_coefficient(&table, &[s]).epsilon;
    let rows: Vec<(String, f64)> = vec![
        ("Plaintext".into(), eps(ColumnScheme::Plaintext)),
        ("Det_Enc".into(), eps(ColumnScheme::Det)),
        (
            "R2_Noise".into(),
            eps(ColumnScheme::RnfNoise { nf: 2, seed: 7 }),
        ),
        (
            "R1000_Noise".into(),
            eps(ColumnScheme::RnfNoise { nf: 1000, seed: 7 }),
        ),
        ("C_Noise".into(), eps(ColumnScheme::CNoise)),
        (
            "ED_Hist (h=G, 1 bucket)".into(),
            eps(ColumnScheme::EdHist { buckets: 1 }),
        ),
        (
            "ED_Hist (h=5)".into(),
            eps(ColumnScheme::EdHist { buckets: 20 }),
        ),
        (
            "ED_Hist (h=1)".into(),
            eps(ColumnScheme::EdHist { buckets: 100 }),
        ),
        ("nDet_Enc (S_Agg)".into(), eps(ColumnScheme::NDet)),
    ];
    writeln!(o, "{:<26} {:>12}", "scheme", "epsilon")?;
    for (name, e) in &rows {
        writeln!(o, "{name:<26} {e:>12.6}")?;
    }
    writeln!(o, "floor = 1/N = {:.6}", epsilon_ndet(&[distinct]))?;

    writeln!(
        o,
        "\nε_ED_Hist vs collision factor h (Zipf database, [11] experiment):"
    )?;
    writeln!(o, "{:>10} {:>12}", "h", "epsilon")?;
    let mut csv = String::from("h,epsilon\n");
    for p in zipf::h_sweep(100, 5000, 1.0, &[1, 2, 5, 10, 20, 50, 100], 42) {
        writeln!(o, "{:>10.2} {:>12.6}", p.h, p.epsilon)?;
        writeln!(csv, "{},{}", p.h, p.epsilon)?;
    }
    csvs.push(("fig8_h_sweep.csv".into(), csv));
    writeln!(o, "(smaller h → bigger ε; max ≈ 0.4 at h = 1 in the paper)")
}

fn fig9(o: &mut String) -> fmt::Result {
    hr(o, "Fig. 9b — TDS internal time to manage a 4 KB partition")?;
    let d = DeviceProfile::default();
    let b = d.partition_breakdown(4096.0);
    writeln!(
        o,
        "device: 120 MHz MCU, AES 167 cycles/block, link 7.9 Mbps"
    )?;
    writeln!(o, "{:<12} {:>12} {:>8}", "component", "seconds", "share")?;
    for (name, v) in [
        ("transfer", b.transfer),
        ("cpu", b.cpu),
        ("decrypt", b.decrypt),
        ("encrypt", b.encrypt),
    ] {
        writeln!(o, "{name:<12} {v:>12.6} {:>7.1}%", 100.0 * v / b.total())?;
    }
    writeln!(o, "total        {:>12.6}", b.total())?;
    writeln!(
        o,
        "effective per-tuple time Tt = {:.2} µs (paper: 16 µs)",
        d.tuple_time() * 1e6
    )
}

fn fig10(o: &mut String, csvs: &mut Vec<(String, String)>, id: &str) -> fmt::Result {
    let fig = sweep::figure(id).expect("known figure id");
    hr(o, &format!("Fig. {} — {}", fig.id, fig.title))?;
    write!(o, "{:>12}", fig.x_label)?;
    for p in &fig.protocols {
        write!(o, " {p:>14}")?;
    }
    writeln!(o)?;
    let mut csv = String::new();
    writeln!(csv, "{},{}", fig.x_label, fig.protocols.join(","))?;
    for pt in &fig.points {
        write!(o, "{:>12.0}", pt.x)?;
        let mut line = format!("{}", pt.x);
        for v in &pt.y {
            write!(o, " {v:>14.6}")?;
            write!(line, ",{v}")?;
        }
        writeln!(o)?;
        writeln!(csv, "{line}")?;
    }
    csvs.push((format!("fig{}.csv", fig.id), csv));
    Ok(())
}

fn fig11(o: &mut String) -> fmt::Result {
    hr(o, "Fig. 11 — comparison among solutions (worst → best)")?;
    for row in ranking::fig11() {
        writeln!(
            o,
            "{:<44} {}",
            row.axis.label(),
            row.worst_to_best.join("  →  ")
        )?;
    }
    Ok(())
}

fn capacity(o: &mut String) -> fmt::Result {
    hr(
        o,
        "system capacity — parallel queries per hour (Load_Q inverted)",
    )?;
    let p = tdsql_costmodel::ModelParams::default();
    let d = DeviceProfile::default();
    writeln!(o, "Nt = 10⁶ TDSs, 10% connected, 7.9 Mbps per TDS")?;
    writeln!(o, "{:<14} {:>18}", "protocol", "queries / hour")?;
    for (name, q) in tdsql_costmodel::capacity::capacity_table(&p, &d) {
        writeln!(o, "{name:<14} {q:>18.0}")?;
    }
    writeln!(
        o,
        "(the Fig. 11 'Global Resource Consumption' axis, quantified)"
    )
}

fn des_elasticity(o: &mut String) -> fmt::Result {
    use tdsql_core::access::AccessPolicy;
    use tdsql_core::connectivity::Connectivity;
    use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
    use tdsql_core::runtime::SimBuilder;
    use tdsql_core::stats::Phase;
    use tdsql_core::workload::{smart_meters, SmartMeterConfig};
    use tdsql_crypto::credential::Role;
    use tdsql_sql::parser::parse_query;

    hr(
        o,
        "elasticity, functionally — T_Q vs TDSs available per round",
    )?;
    let n_tds = 600usize;
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds,
        districts: 16,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district")
        .expect("valid SQL");
    let device = DeviceProfile::default();
    writeln!(
        o,
        "{n_tds} TDSs, G = 16 — one driver run per row at Connectivity::fraction(available / {n_tds}),\n\
         timed by simtime (T_Q = aggregation phase)"
    )?;
    writeln!(
        o,
        "{:<14} {:>9} {:>14} {:>9} {:>8} {:>10}",
        "protocol", "available", "T_Q (s)", "speed-up", "util", "agg rounds"
    )?;
    for kind in [ProtocolKind::SAgg, ProtocolKind::EdHist { buckets: 8 }] {
        let mut tq_one = None;
        for available in [1usize, 4, 16, 64] {
            let mut world = SimBuilder {
                connectivity: Connectivity::fraction(available as f64 / n_tds as f64),
                // Collection is untimed; let it hear from every TDS even when
                // one connects per round (about N·ln N rounds).
                default_max_rounds: 100_000,
                ..SimBuilder::new().seed(3)
            }
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
            let querier = world.make_querier("q", "supplier");
            let mut params = ProtocolParams::new(kind);
            params.chunk = 16;
            params.alpha = 4;
            world
                .run_query(&querier, &query, params)
                .expect("protocol run");
            assert!(!world.stats.partial, "every TDS must contribute");
            let tq = tdsql_bench::simtime::simulate(&world.stats, &device).tq();
            let tq_one = *tq_one.get_or_insert(tq);
            writeln!(
                o,
                "{:<14} {available:>9} {tq:>14.5} {:>9.2} {:>7.0}% {:>10}",
                kind.name(),
                tq_one / tq,
                100.0 * tq_one / (available as f64 * tq),
                world.stats.phase(Phase::Aggregation).steps
            )?;
        }
    }
    writeln!(
        o,
        "(Fig. 10i/j's claim, functionally: ED_Hist exploits added TDSs;\n\
         S_Agg's serial reducer tail caps its speed-up)"
    )
}

fn sim_vs_model(o: &mut String) -> fmt::Result {
    use tdsql_core::access::AccessPolicy;
    use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
    use tdsql_core::runtime::SimBuilder;
    use tdsql_core::workload::{smart_meters, SmartMeterConfig};
    use tdsql_costmodel::ed_hist::EdHistModel;
    use tdsql_costmodel::noise::NoiseModel;
    use tdsql_costmodel::s_agg::SAggModel;
    use tdsql_costmodel::{ModelParams, ProtocolModel};
    use tdsql_crypto::credential::Role;
    use tdsql_sql::parser::parse_query;

    hr(
        o,
        "model cross-check — functional simulator vs analytical Load_Q",
    )?;
    let n_tds = 2_000usize;
    let g = 10usize;
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds,
        districts: g,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district")
        .expect("valid SQL");
    let device = DeviceProfile::default();
    let model_params = ModelParams {
        nt: n_tds as f64,
        g: g as f64,
        availability: 1.0,
        tt: device.tuple_time(),
        ..ModelParams::default()
    };

    writeln!(o, "population: {n_tds} TDSs, G = {g}, full availability")?;
    writeln!(
        o,
        "{:<14} {:>14} {:>14} {:>10} {:>14} {:>10}",
        "protocol", "sim load (B)", "model load (B)", "ratio", "sim T_Q (s)", "agg steps"
    )?;
    let cases: Vec<(ProtocolKind, Box<dyn ProtocolModel>)> = vec![
        (ProtocolKind::SAgg, Box::new(SAggModel)),
        (ProtocolKind::RnfNoise { nf: 2 }, Box::new(NoiseModel::r2())),
        (ProtocolKind::CNoise, Box::new(NoiseModel::controlled())),
        (ProtocolKind::EdHist { buckets: 2 }, Box::new(EdHistModel)),
    ];
    for (kind, model) in cases {
        let mut world = SimBuilder::new()
            .seed(5)
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("q", "supplier");
        let mut params = ProtocolParams::new(kind);
        params.chunk = 64;
        world
            .run_query(&querier, &query, params)
            .expect("protocol run");
        let sim = tdsql_bench::simtime::simulate(&world.stats, &device);
        let metrics = model.metrics(&model_params);
        // Our wire tuples carry group keys, flags and AEAD overhead the
        // 16-byte model tuple does not; normalise by the padded tuple size.
        let sim_load = world.stats.load_bytes() as f64;
        let model_load = metrics.load_bytes * (96.0 + 16.0) / 16.0;
        writeln!(
            o,
            "{:<14} {:>14.0} {:>14.0} {:>10.2} {:>14.5} {:>10}",
            kind.name(),
            sim_load,
            model_load,
            sim_load / model_load,
            sim.tq(),
            world
                .stats
                .phase(tdsql_core::stats::Phase::Aggregation)
                .steps,
        )?;
    }
    writeln!(
        o,
        "\nLoad_Q is the structural invariant: noise-based protocols pay the\n\
         fake-tuple multiple, and simulated/model ratios stay within a small\n\
         constant (wire framing, batch headers, discovery traffic). Laptop-\n\
         scale wall-clock T_Q is chunk-constant-dominated; the paper-scale\n\
         T_Q curves come from the analytical sweeps (Fig. 10e/i/j above)."
    )
}

fn alpha(o: &mut String) -> fmt::Result {
    hr(o, "α_op — optimal S_Agg reduction factor")?;
    let solved = optimum::solve_alpha_opt();
    writeln!(
        o,
        "numeric minimiser of (α+1)/ln α: α_op = {solved:.4} (paper: ≈ 3.6)"
    )?;
    writeln!(o, "{:>8} {:>14}", "alpha", "(α+1)logα(N)")?;
    for alpha in [2.0, 2.5, 3.0, 3.59, 4.0, 5.0, 8.0] {
        writeln!(
            o,
            "{alpha:>8.2} {:>14.4}",
            optimum::s_agg_time_factor(alpha) * (1e3f64).ln()
        )?;
    }
    Ok(())
}
