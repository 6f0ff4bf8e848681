//! `incprof shard` — front a cluster of `incprof-serve` backends with
//! the consistent-hash session router from `incprof-shard`.
//!
//! Two ways to assemble the cluster:
//!
//! * **Spawn mode** (`--backends n`): the command spawns `n` child
//!   `incprof serve` processes (via the current executable) on
//!   ephemeral ports, all sharing `--store-dir`, waits for their
//!   address files, and routes to them. SIGINT or a `Shutdown` frame
//!   drains the router, which drains every backend, and the children
//!   are reaped before the command returns.
//! * **Address mode** (`--backend data[,admin]`, repeated): the
//!   backends are already running somewhere; the router just dials
//!   them. Shard numbers follow the flag order.
//!
//! `--route <session-id>` is the scripting helper: it prints the
//! session's home shard for a `--backends n` ring and exits without
//! binding anything (`scripts/check.sh` uses it to decide which
//! backend to kill in the failover smoke).

use crate::args::Parsed;
use crate::serve_cmd::{announce_and_wait, bind_addr};
use crate::{usage_error, CliError};
use incprof_serve::signal;
use incprof_shard::{BackendSpec, Ring, Router, RouterConfig};
use std::process::{Child, Command};

/// What `incprof shard`'s command line says, before anything is bound
/// or spawned: the spawn-mode backend count (0 in address mode) and the
/// router configuration, its `backends` holding the `--backend` specs.
fn shard_config(p: &Parsed) -> Result<(usize, RouterConfig), CliError> {
    let defaults = RouterConfig::default();
    let spawn_backends = p.at_least("--backends", 1)?.unwrap_or(0);
    let backends = p.all("--backend").map(|v| {
        let (data, admin) = match v[0].split_once(',') {
            Some((data, admin)) => (data, Some(admin)),
            None => (&*v[0], None),
        };
        BackendSpec {
            data: data.to_string(),
            admin: admin.map(str::to_string),
        }
    });
    let config = RouterConfig {
        addr: bind_addr(p, "--addr", "--unix")?.unwrap_or(defaults.addr),
        backends: backends.collect(),
        admin: bind_addr(p, "--admin", "--admin-unix")?,
        store_dir: p.path("--store-dir"),
        max_conns: p.at_least("--max-conns", 1)?.unwrap_or(defaults.max_conns),
        ..defaults
    };
    Ok((spawn_backends, config))
}

/// `incprof shard`: bind the router, print `incprof-shard listening on
/// <addr>` (and the merged admin address when configured), then block
/// until a `Shutdown` frame or SIGINT. Spawned backends inherit
/// `--store-dir` so a killed backend's sessions replay on the ring's
/// next healthy node; `--pid-dir` writes one `backend-<shard>.pid` file
/// per child for scripts that want to kill a specific shard.
pub(crate) fn shard_cmd(p: &Parsed) -> Result<String, CliError> {
    let (spawn_backends, mut config) = shard_config(p)?;
    let pid_dir = p.path("--pid-dir");

    // Pure placement helper: no sockets, no children — print the home
    // shard for the given ring size and exit.
    if let Some(session_id) = p.num::<u64>("--route")? {
        let n = match spawn_backends {
            0 => config.backends.len(),
            n => n,
        };
        if n == 0 {
            return usage_error("--route needs --backends n (the ring size to place against)");
        }
        return Ok(Ring::new(n).owner(session_id).to_string());
    }

    if spawn_backends > 0 && !config.backends.is_empty() {
        return usage_error(
            "--backends (spawn mode) and --backend (address mode) are mutually exclusive",
        );
    }
    if spawn_backends == 0 && config.backends.is_empty() {
        return usage_error("shard needs --backends n or at least one --backend addr");
    }

    signal::install_sigint_handler();

    let mut children: Vec<Child> = Vec::new();
    if spawn_backends > 0 {
        let store_dir = config.store_dir.clone().ok_or_else(|| {
            CliError::Usage("spawn mode needs --store-dir (shared by all backends)".into())
        })?;
        let runtime_dir = pid_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("incprof-shard-{}", std::process::id()))
        });
        std::fs::create_dir_all(&runtime_dir)?;
        (children, config.backends) =
            spawn_cluster(spawn_backends, &store_dir, &runtime_dir, pid_dir.as_deref())?;
    }

    let handle = match Router::bind(config).and_then(Router::start) {
        Ok(handle) => handle,
        Err(e) => {
            reap(&mut children);
            return Err(CliError::Io(e));
        }
    };
    let note = format!(" ({} backend(s))", handle.backends_up().len());
    announce_and_wait("incprof-shard", &note, &handle, p)?;
    let up: Vec<bool> = handle.backends_up();
    let routed = handle.routed_per_backend();
    handle.shutdown();
    reap(&mut children);

    let alive = up.iter().filter(|&&u| u).count();
    let per_shard: Vec<String> = routed
        .iter()
        .enumerate()
        .map(|(b, n)| format!("shard {b}: {n}"))
        .collect();
    let deaths = incprof_obs::counter(incprof_obs::names::SHARD_BACKEND_DEATHS).get();
    let replayed = incprof_obs::counter(incprof_obs::names::SHARD_SESSIONS_REPLAYED).get();
    Ok(format!(
        "incprof-shard drained: {alive}/{} backend(s) up at shutdown, \
         {} frame(s) routed ({}), {deaths} death(s), {replayed} session(s) replayed",
        up.len(),
        routed.iter().sum::<u64>(),
        per_shard.join(", "),
    ))
}

/// Spawn `n` child `incprof serve` backends on ephemeral ports sharing
/// `store_dir`, wait for all their address files, and return the
/// children plus their dialable specs (index = shard number).
fn spawn_cluster(
    n: usize,
    store_dir: &std::path::Path,
    runtime_dir: &std::path::Path,
    pid_dir: Option<&std::path::Path>,
) -> Result<(Vec<Child>, Vec<BackendSpec>), CliError> {
    let exe = std::env::current_exe()?;
    let mut children = Vec::with_capacity(n);
    let mut addr_files = Vec::with_capacity(n);
    for b in 0..n {
        let data_file = runtime_dir.join(format!("backend-{b}.addr"));
        let admin_file = runtime_dir.join(format!("backend-{b}.admin"));
        let _ = std::fs::remove_file(&data_file);
        let _ = std::fs::remove_file(&admin_file);
        let child = Command::new(&exe)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&data_file)
            .arg("--admin")
            .arg("127.0.0.1:0")
            .arg("--admin-addr-file")
            .arg(&admin_file)
            .arg("--store-dir")
            .arg(store_dir)
            .spawn()
            .map_err(|e| CliError::Pipeline(format!("spawning backend {b}: {e}")))?;
        if let Some(dir) = pid_dir {
            std::fs::write(dir.join(format!("backend-{b}.pid")), child.id().to_string())?;
        }
        children.push(child);
        addr_files.push((data_file, admin_file));
    }

    let mut specs = Vec::with_capacity(n);
    for (b, (data_file, admin_file)) in addr_files.iter().enumerate() {
        let spec = await_addr_file(data_file).and_then(|data| {
            let admin = Some(await_addr_file(admin_file)?);
            Ok(BackendSpec { data, admin })
        });
        match spec {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                reap(&mut children);
                return Err(CliError::Pipeline(format!(
                    "backend {b} never came up: {e}"
                )));
            }
        }
    }
    Ok((children, specs))
}

/// Poll for an address file written by a spawning backend (bounded by
/// iteration count, not wall clock, so the loop is lint-clean).
fn await_addr_file(path: &std::path::Path) -> Result<String, String> {
    for _ in 0..200 {
        if let Ok(text) = std::fs::read_to_string(path) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                return Ok(text);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    Err(format!("no address file at {} after 10s", path.display()))
}

/// Best-effort child reaping: give each child a bounded window to exit
/// on its own (a drained backend is already on its way out), then kill
/// and wait so nothing is left as a zombie.
fn reap(children: &mut Vec<Child>) {
    for child in children.iter_mut() {
        let mut exited = false;
        for _ in 0..100 {
            match child.try_wait() {
                Ok(Some(_)) => {
                    exited = true;
                    break;
                }
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(50)),
                Err(_) => break,
            }
        }
        if !exited {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    children.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_serve::BindAddr;

    fn config(args: &[&str]) -> Result<(usize, RouterConfig), CliError> {
        shard_config(&crate::spec("shard")?.parse(&crate::tests::s(args))?)
    }

    #[test]
    fn shard_flags_land_in_the_router_config() {
        let (spawn, c) = config(&[
            "--backend",
            "h:1,h:2",
            "--backend",
            "/tmp/b.sock",
            "--unix",
            "/tmp/r.sock",
            "--admin-unix",
            "/tmp/ra.sock",
            "--store-dir",
            "/tmp/store",
            "--max-conns",
            "7",
        ])
        .unwrap();
        assert_eq!(spawn, 0);
        // Repeated --backend: shard numbers follow the flag order.
        let backends = c.backends.iter().map(|b| (&*b.data, b.admin.as_deref()));
        assert_eq!(
            backends.collect::<Vec<_>>(),
            [("h:1", Some("h:2")), ("/tmp/b.sock", None)]
        );
        assert_eq!(c.addr, BindAddr::Unix("/tmp/r.sock".into()));
        assert_eq!(c.admin, Some(BindAddr::Unix("/tmp/ra.sock".into())));
        assert_eq!(c.max_conns, 7);
        let (spawn, c) = config(&["--backends", "2", "--admin", "h:9"]).unwrap();
        assert_eq!((spawn, c.backends.len()), (2, 0));
        assert_eq!(c.admin, Some(BindAddr::Tcp("h:9".into())));
    }

    #[test]
    fn shard_rejects_zero_counts_and_both_spellings_of_one_address() {
        let usage = |args: &[&str]| match config(args) {
            Err(CliError::Usage(message)) => message,
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        };
        assert_eq!(usage(&["--backends", "0"]), "--backends must be at least 1");
        assert_eq!(
            usage(&["--max-conns", "0"]),
            "--max-conns must be at least 1"
        );
        for line in [
            ["--addr", "h:1", "--unix", "/tmp/s"],
            ["--unix", "/tmp/s", "--addr", "h:1"],
        ] {
            assert_eq!(usage(&line), "--addr and --unix are mutually exclusive");
        }
        assert_eq!(
            usage(&["--admin", "h:2", "--admin-unix", "/tmp/a"]),
            "--admin and --admin-unix are mutually exclusive"
        );
    }

    #[test]
    fn route_places_a_session_without_binding_anything() {
        let line = crate::tests::s;
        let owner = crate::run(&line(&["shard", "--route", "7", "--backends", "2"])).unwrap();
        assert_eq!(owner, Ring::new(2).owner(7).to_string());
        for bad in [&["shard", "--route", "7"][..], &["shard"][..]] {
            assert!(matches!(crate::run(&line(bad)), Err(CliError::Usage(_))));
        }
    }
}
