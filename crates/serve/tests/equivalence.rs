//! Cross-surface equivalence: one fleet config and one scenario pack,
//! each run through the library runners and through an in-process
//! `dh_serve::Server` job, fresh and interrupted-then-resumed. Every
//! surface must land on one report fingerprint per input, and where the
//! checkpoint cadences match, on byte-identical checkpoint generations.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dh_exec::RetryPolicy;
use dh_fleet::{
    run_fleet, run_fleet_checkpointed_with, run_fleet_supervised_with, CheckpointMode,
    CheckpointStore, FleetConfig, FleetPolicy, FleetRun, MaintenanceBudget,
};
use dh_scenario::{run_pack, run_pack_supervised, ScenarioCheckpointStore, ScenarioRun};
use dh_serve::client::{request, sse};
use dh_serve::{ServeConfig, Server};

/// Generations every checkpointing run keeps.
const KEEP: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dh-serve-equivalence-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn start(data_dir: &Path, scenario_dir: Option<&Path>) -> (Server, SocketAddr) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.to_path_buf(),
        scenario_dir: scenario_dir.map(Path::to_path_buf),
        concurrency: 1,
        step_shards: 1,
        pace: Duration::from_millis(60),
        ..ServeConfig::default()
    })
    .expect("server should bind");
    let addr = server.local_addr();
    (server, addr)
}

fn field(body: &str, name: &str) -> String {
    let needle = format!("\"{name}\": ");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no field {name:?} in {body}"))
        + needle.len();
    body[at..]
        .split([',', '}'])
        .next()
        .expect("split yields a piece")
        .trim()
        .trim_matches('"')
        .to_string()
}

fn submit(addr: SocketAddr, body: &str) -> String {
    let r = request(addr, "POST", "/jobs", Some(body)).expect("submit");
    assert_eq!(r.status, 202, "{}", r.body);
    field(&r.body, "id")
}

/// Tails a job's SSE stream to its terminal frame and returns the
/// `started` payload and the completed fingerprint.
fn finish(addr: SocketAddr, id: &str) -> (String, String) {
    let frames = sse(addr, &format!("/jobs/{id}/events")).expect("sse");
    let (last_event, last_data) = frames.last().expect("terminal frame");
    assert_eq!(last_event, "completed", "frames: {frames:?}");
    let started = frames.first().expect("started frame").1.clone();
    (started, field(last_data, "fingerprint"))
}

/// Submits `body`, cancels the job once its `shards_done` reaches
/// `at_least` (so at least one checkpoint landed), and returns how far
/// it got.
fn kill_midway(addr: SocketAddr, body: &str, at_least: u64) -> u64 {
    let id = submit(addr, body);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let r = request(addr, "GET", &format!("/jobs/{id}"), None).expect("status");
        let done: u64 = field(&r.body, "shards_done").parse().unwrap_or(0);
        if done >= at_least {
            break;
        }
        assert!(Instant::now() < deadline, "job {id} never checkpointed");
        std::thread::sleep(Duration::from_millis(5));
    }
    request(addr, "DELETE", &format!("/jobs/{id}"), None).expect("cancel");
    loop {
        let r = request(addr, "GET", &format!("/jobs/{id}"), None).expect("status");
        if field(&r.body, "status") == "cancelled" {
            return field(&r.body, "shards_done").parse().expect("shards_done");
        }
        assert!(Instant::now() < deadline, "job {id} never cancelled");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn generations(paths: impl Fn(usize) -> PathBuf) -> Vec<Vec<u8>> {
    (0..KEEP)
        .map(|g| std::fs::read(paths(g)).unwrap_or_else(|e| panic!("generation {g}: {e}")))
        .collect()
}

fn hex(fp: u64) -> String {
    format!("{fp:#018x}")
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        devices: 256,
        years: 0.2,
        shard_size: 32,
        group_size: 16,
        budget: MaintenanceBudget { slots_per_group: 2 },
        seed: 11,
        policies: vec![FleetPolicy::WorstFirst],
        ..FleetConfig::default()
    }
}

fn fleet_body(checkpoint: &str, mode: &str) -> String {
    format!(
        "{{\"config\": {{\"devices\": 256, \"years\": 0.2, \"shard_size\": 32, \
         \"group_size\": 16, \"budget\": 2, \"seed\": 11}}, \"checkpoint\": \"{checkpoint}\", \
         \"checkpoint_every\": 1, \"checkpoint_mode\": \"{mode}\", \"keep\": {KEEP}}}"
    )
}

#[test]
fn a_fleet_config_lands_on_one_fingerprint_and_one_checkpoint_on_every_surface() {
    let dir = temp_dir("fleet");
    let config = fleet_config();
    let expected = run_fleet(&config).unwrap().fingerprint();
    let retry = RetryPolicy::default();
    let (server, addr) = start(&dir.join("daemon"), None);
    let mut newest = Vec::new();

    for (mode, name) in [
        (CheckpointMode::Sync, "sync"),
        (CheckpointMode::Async, "async"),
    ] {
        // The plain checkpointed runner (single file, strict stepping).
        let plain = dir.join(format!("plain-{name}.dhfl"));
        let report = run_fleet_checkpointed_with(&config, &plain, 1, mode).unwrap();
        assert_eq!(report.fingerprint(), expected, "plain {name}");
        newest.push((format!("plain {name}"), std::fs::read(&plain).unwrap()));

        // The supervised runner, fresh, one shard per write.
        let store = CheckpointStore::new(dir.join(format!("lib-{name}.dhfl")), KEEP);
        let (report, degraded) =
            run_fleet_supervised_with(&config, None, &retry, Some((&store, 1)), mode).unwrap();
        assert_eq!(report.fingerprint(), expected, "supervised {name}");
        assert!(!degraded.is_degraded(), "{degraded:?}");
        let library = generations(|g| store.generation_path(g));

        // The supervised runner resuming a run interrupted after three
        // of its eight shards.
        let resumed = CheckpointStore::new(dir.join(format!("lib-resumed-{name}.dhfl")), KEEP);
        let mut run = FleetRun::new(config.clone()).unwrap();
        run.step(3).unwrap();
        resumed.write(&run.snapshot()).unwrap();
        let (report, _) =
            run_fleet_supervised_with(&config, None, &retry, Some((&resumed, 1)), mode).unwrap();
        assert_eq!(report.fingerprint(), expected, "resumed {name}");
        newest.push((
            format!("resumed {name}"),
            std::fs::read(resumed.generation_path(0)).unwrap(),
        ));

        // The daemon, fresh: same stride, same keep, so every retained
        // generation matches the library's byte for byte.
        let fresh = format!("fresh-{name}.dhfl");
        let (_, fingerprint) = finish(addr, &submit(addr, &fleet_body(&fresh, name)));
        assert_eq!(fingerprint, hex(expected), "daemon fresh {name}");
        let daemon = generations(|g| {
            CheckpointStore::new(dir.join("daemon").join(&fresh), KEEP).generation_path(g)
        });
        assert!(
            library == daemon,
            "{name}: daemon generations differ from the library's"
        );

        // The daemon, killed after at least one checkpoint and resubmitted.
        let killed = format!("killed-{name}.dhfl");
        let body = fleet_body(&killed, name);
        let done_at_kill = kill_midway(addr, &body, 2);
        assert!(
            done_at_kill < 8,
            "the job finished before it could be killed"
        );
        let (started, fingerprint) = finish(addr, &submit(addr, &body));
        let resumed_from: u64 = field(&started, "resumed_from").parse().unwrap();
        assert!(
            resumed_from > 0,
            "the resubmission did not resume: {started}"
        );
        assert_eq!(fingerprint, hex(expected), "daemon resumed {name}");
        newest.push((
            format!("daemon resumed {name}"),
            std::fs::read(dir.join("daemon").join(&killed)).unwrap(),
        ));
        newest.push((format!("daemon fresh {name}"), daemon[0].clone()));
    }

    let (first_label, first) = &newest[0];
    for (label, bytes) in &newest[1..] {
        assert!(
            bytes == first,
            "{label} final checkpoint differs from {first_label}'s"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small scenario pack (a shrunk `sram-decoder`, 6 shards per epoch)
/// for the daemon's `scenario_dir`.
fn write_pack(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("scenario dir");
    let path = dir.join("eq-sram.json");
    std::fs::write(
        &path,
        r#"{
            "name": "eq-sram",
            "description": "shrunk sram-decoder pack for the equivalence test",
            "seed": 1101,
            "epochs": 12,
            "epoch_hours": 730.0,
            "shard_size": 256,
            "fail_threshold_mv": 45.0,
            "workload": {"trace": [0.95, 0.7, 0.5, 0.85]},
            "maintenance": {"policy": "invert", "interval_epochs": 4, "recovery_bias_v": 0.3},
            "blocks": [
                {"model": "sram-decoder", "count": 1024, "vdd_v": 0.95,
                 "temperature_c": 85.0, "variability": 0.08, "skew": 1.1},
                {"model": "sram-decoder", "count": 512, "vdd_v": 0.9,
                 "temperature_c": 70.0, "variability": 0.1, "skew": 1.6}
            ]
        }"#,
    )
    .expect("write pack");
    path
}

#[test]
fn a_scenario_pack_lands_on_one_fingerprint_and_one_checkpoint_on_every_surface() {
    // `run_pack_supervised` steps one shard per worker; two workers make
    // its stride match the daemon jobs' `checkpoint_every` of 2.
    dh_exec::set_max_threads(Some(2));
    let dir = temp_dir("scenario");
    let pack = dh_scenario::load_pack_file(&write_pack(&dir.join("packs"))).unwrap();
    let expected = run_pack(pack.clone()).fingerprint;
    let retry = RetryPolicy::default();

    let (report, degraded) = run_pack_supervised(pack.clone(), None, &retry, None).unwrap();
    assert_eq!(report.fingerprint, expected);
    assert!(!degraded.is_degraded());

    // The supervised runner, fresh, writing after every 2-shard step.
    let store = ScenarioCheckpointStore::new(dir.join("lib.dhsp"), KEEP);
    let (report, degraded) =
        run_pack_supervised(pack.clone(), None, &retry, Some((&store, 1))).unwrap();
    assert_eq!(report.fingerprint, expected);
    assert!(!degraded.is_degraded(), "{degraded:?}");
    let library = generations(|g| store.generation_path(g));

    // The supervised runner resuming a run interrupted mid-epoch.
    let resumed = ScenarioCheckpointStore::new(dir.join("lib-resumed.dhsp"), KEEP);
    let mut run = ScenarioRun::new(pack.clone());
    run.step(6);
    run.step(4);
    resumed.write(&run).unwrap();
    let (report, _) = run_pack_supervised(pack.clone(), None, &retry, Some((&resumed, 1))).unwrap();
    assert_eq!(report.fingerprint, expected);
    let lib_resumed = std::fs::read(resumed.generation_path(0)).unwrap();

    let data_dir = dir.join("daemon");
    let (server, addr) = start(&data_dir, Some(&dir.join("packs")));
    let body = |name: &str| {
        format!(
            "{{\"scenario\": \"eq-sram\", \"checkpoint\": \"{name}\", \"checkpoint_every\": 2, \
             \"keep\": {KEEP}}}"
        )
    };

    let (_, fingerprint) = finish(addr, &submit(addr, &body("fresh.dhsp")));
    assert_eq!(fingerprint, hex(expected), "daemon fresh");
    let daemon = generations(|g| {
        ScenarioCheckpointStore::new(data_dir.join("fresh.dhsp"), KEEP).generation_path(g)
    });
    assert!(
        library == daemon,
        "daemon generations differ from the library's"
    );

    let done_at_kill = kill_midway(addr, &body("killed.dhsp"), 8);
    assert!(
        done_at_kill < 72,
        "the job finished before it could be killed"
    );
    let (started, fingerprint) = finish(addr, &submit(addr, &body("killed.dhsp")));
    let resumed_epoch: u64 = field(&started, "resumed_epoch").parse().unwrap();
    assert!(
        resumed_epoch > 0,
        "the resubmission did not resume: {started}"
    );
    assert_eq!(fingerprint, hex(expected), "daemon resumed");
    let daemon_resumed = std::fs::read(data_dir.join("killed.dhsp")).unwrap();

    assert!(
        lib_resumed == library[0],
        "resumed library run ends elsewhere"
    );
    assert!(
        daemon_resumed == library[0],
        "resumed daemon job ends elsewhere"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
