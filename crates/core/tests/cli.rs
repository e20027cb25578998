//! End-to-end tests of the `kea` binary: the CLI is an API surface too.

use std::process::Command;

fn kea(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_kea"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_lists_all_commands() {
    let out = kea(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "observe", "models", "optimize", "yarn", "sku-design", "power", "sc", "queues", "value",
    ] {
        assert!(text.contains(cmd), "help missing '{cmd}'");
    }
}

#[test]
fn observe_models_optimize_round_trip() {
    let dir = std::env::temp_dir().join(format!("kea-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("telemetry.csv");
    let csv_str = csv.to_str().expect("utf-8 path");

    let out = kea(&[
        "observe", "--cluster", "tiny", "--hours", "26", "--seed", "5", "--out", csv_str,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(csv.exists());

    let out = kea(&["models", "--telemetry", csv_str]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sku0"), "models table present: {text}");

    let out = kea(&["optimize", "--telemetry", csv_str, "--max-step", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("predicted capacity gain"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--telemetry` also takes a durable store directory: built from the
/// observed CSV, it must give the same `optimize` output as the CSV, and
/// a flipped segment byte must fail the run with the typed recovery
/// error (exit 2), never a plan fitted on partial history.
#[test]
fn optimize_on_a_store_directory_matches_the_csv_and_refuses_corruption() {
    use kea_telemetry::{read_csv, TelemetryStore};

    let dir = std::env::temp_dir().join(format!("kea-cli-store-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("telemetry.csv");
    let csv_str = csv.to_str().expect("utf-8 path");
    let store_dir = dir.join("telemetry.store");
    let store_str = store_dir.to_str().expect("utf-8 path");

    let out = kea(&[
        "observe", "--cluster", "tiny", "--hours", "26", "--seed", "5", "--out", csv_str,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let observed =
        read_csv(std::io::BufReader::new(std::fs::File::open(&csv).expect("open csv")))
            .expect("read csv");
    let mut store = TelemetryStore::open(&store_dir).expect("open store dir");
    store.extend(observed.iter().copied());
    store.seal();
    store.sync().expect("sync store");
    drop(store);

    let from_csv = kea(&["optimize", "--telemetry", csv_str]);
    assert!(from_csv.status.success(), "{}", String::from_utf8_lossy(&from_csv.stderr));
    let from_dir = kea(&["optimize", "--telemetry", store_str]);
    assert!(from_dir.status.success(), "{}", String::from_utf8_lossy(&from_dir.stderr));
    assert_eq!(
        String::from_utf8_lossy(&from_dir.stdout),
        String::from_utf8_lossy(&from_csv.stdout)
    );

    let segment = std::fs::read_dir(&store_dir)
        .expect("list store dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "kseg"))
        .expect("a sealed store has a segment");
    let mut bytes = std::fs::read(&segment).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&segment, &bytes).expect("write segment");

    let out = kea(&["optimize", "--telemetry", store_str]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checksum mismatch") && err.contains("quarantined"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn value_reproduces_the_headline_arithmetic() {
    let out = kea(&["value", "--machines", "300000", "--gain-pct", "2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // "tens of millions of dollars per year" — extract the final $M figure.
    let value: f64 = text
        .rsplit_once('$')
        .and_then(|(_, rest)| rest.split('M').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no $M figure in: {text}"));
    assert!((10.0..100.0).contains(&value), "got ${value}M");
}

#[test]
fn unknown_commands_and_flags_fail_loudly() {
    let out = kea(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = kea(&["observe", "--no-such-flag", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    let out = kea(&["models", "--telemetry", "/nonexistent/file.csv"]);
    assert!(!out.status.success());
}

#[test]
fn value_prices_the_requested_machine_count() {
    for n in ["3", "100"] {
        let out = kea(&["value", "--machines", n]);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && text.starts_with(&format!("{n} machines:")),
            "{text}"
        );
    }
}

/// Flag values outside what the simulator or an experiment design can
/// run are refused as errors (exit 2) that name what is wrong, never a
/// panic (exit 101).
#[test]
fn out_of_range_flags_are_errors_not_panics() {
    for (args, message) in [
        ("observe --hours 0", "duration must be at least 1 hour"),
        ("queues --hours 0", "duration must be at least 1 hour"),
        ("yarn --observe-hours 0", "observation window lasts 0 h"),
        // The deployment evaluation skips each window's first hour, so a
        // 1-hour window leaves it nothing to compare.
        ("yarn --observe-hours 1", "observation window lasts 1 h"),
        ("yarn --eval-hours 1", "evaluation window lasts 1 h"),
        ("observe --occupancy 0", "target_occupancy 0 must be finite"),
        ("observe --occupancy 3", "target_occupancy 3 must be finite"),
        ("observe --occupancy NaN", "target_occupancy NaN must"),
        ("queues --occupancy 0", "target_occupancy 0 must be finite"),
        ("power --group-size 0", "group_size must be positive"),
        // 4 groups of 2^62 machines: the machine count overflows usize.
        ("power --group-size 4611686018427387904", "machines, need"),
        ("power --caps NaN", "capping level NaN is not a fraction"),
        ("power --caps -1", "capping level -1 is not a fraction"),
        ("sku-design --cores 0", "the future SKU has no cores"),
        ("value --machines 0", "--machines must be at least 1"),
    ] {
        let out = kea(&args.split(' ').collect::<Vec<_>>());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {err}");
        assert!(!err.contains("panicked"), "{args}: {err}");
        assert!(err.contains(message), "{args}: {err}");
    }
}
