//! `perfbench`: runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untraced and the result line carries the
//! end-to-end metrics. With `--trace 1` the time is split between an
//! untraced and a traced run of the same seed; both are printed side by
//! side, the result line carries the per-layer metrics, and the sampled
//! message spans are written to `perfbench/out/`. The last line of
//! standard output is always the JSON result line.

use std::process::ExitCode;
use std::rc::Rc;

use perfbench::report::{
    end_to_end, failed_share, median, per_layer, result_line, samples_json, table,
};
use perfbench::run::{episodes_for, run, Totals};
use perfbench::trace::Tracer;
use perfbench::workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <steady-n10|lossy-n20|overlay-n100|multigroup-1k> \
--seed <n> --seconds <s> --trace <0|1>";

/// Where the traced run writes its sampled spans, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn summary(label: &str, t: &Totals) -> String {
    format!(
        "{label}: {} episodes, {} rounds, {} msgs submitted, {} complete, {} missing, \
{} lost with their origin, failed_share {}, checks {}; machine slowdown {:.3} \
(median msgs_per_s as measured {:.1})",
        t.episodes,
        t.rounds,
        t.submitted(),
        t.completed(),
        t.settled.missing,
        t.settled.lost_with_origin,
        failed_share(t),
        if t.correct() { "passed" } else { "FAILED" },
        median(&t.slowdown),
        median(&t.raw_rates),
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec();
    let name = args.workload.name();
    let episodes = episodes_for(&spec, args.seconds);
    let untraced_tr = Rc::new(Tracer::new(false));

    let (runs, metrics) = if args.trace {
        let half = episodes.div_ceil(2);
        let plain = run(&spec, args.seed, half, &untraced_tr);
        let tr = Rc::new(Tracer::new(true));
        let traced = run(&spec, args.seed, half, &tr);
        println!(
            "{}",
            table(
                &format!("{name} seed {}: end-to-end, untraced vs traced", args.seed),
                &["untraced", "traced"],
                &[end_to_end(&plain), end_to_end(&traced)],
            )
        );
        let layers = per_layer(&plain, &traced, &tr);
        println!(
            "{}",
            table(
                &format!("{name}: per layer (traced run)"),
                &["traced"],
                std::slice::from_ref(&layers)
            )
        );
        let path = format!("{OUT_DIR}/{name}-seed{}.spans.json", args.seed);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, samples_json(name, args.seed, &tr.samples())));
        match written {
            Ok(()) => println!("sampled message spans: {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        (vec![plain, traced], layers)
    } else {
        let plain = run(&spec, args.seed, episodes, &untraced_tr);
        let e2e = end_to_end(&plain);
        println!(
            "{}",
            table(
                &format!("{name} seed {}: end-to-end", args.seed),
                &["untraced"],
                std::slice::from_ref(&e2e)
            )
        );
        (vec![plain], e2e)
    };

    for (t, label) in runs.iter().zip(["untraced", "traced"]) {
        println!("{}", summary(label, t));
        for v in &t.violations {
            println!("  check failed: {v}");
        }
    }
    let correct = runs.iter().all(Totals::correct);
    let attempted = runs.iter().map(Totals::submitted).sum::<u64>().max(1);
    let failed = runs.iter().map(|t| t.settled.missing).sum();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
