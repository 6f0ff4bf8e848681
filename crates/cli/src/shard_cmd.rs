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

use crate::serve_cmd::{announce_and_wait, parse_num, take};
use crate::CliError;
use incprof_serve::signal;
use incprof_serve::BindAddr;
use incprof_shard::{BackendSpec, Ring, Router, RouterConfig};
use std::path::PathBuf;
use std::process::{Child, Command};

/// `incprof shard (--backends n | --backend data[,admin] ...)
/// [--addr host:port | --unix path] [--addr-file path]
/// [--admin host:port | --admin-unix path] [--admin-addr-file path]
/// [--store-dir dir] [--pid-dir dir] [--max-conns n]
/// [--route session-id]`.
///
/// Binds the router, prints `incprof-shard listening on <addr>` (and
/// the merged admin address when configured), then blocks until a
/// `Shutdown` frame or SIGINT. Spawned backends inherit `--store-dir`
/// so a killed backend's sessions replay on the ring's next healthy
/// node; `--pid-dir` writes one `backend-<shard>.pid` file per child
/// for scripts that want to kill a specific shard.
pub fn shard_cmd(args: &[String]) -> Result<String, CliError> {
    let mut spawn_backends: usize = 0;
    let mut backend_specs: Vec<BackendSpec> = Vec::new();
    let mut config = RouterConfig::default();
    let mut addr_file: Option<PathBuf> = None;
    let mut admin_addr_file: Option<PathBuf> = None;
    let mut pid_dir: Option<PathBuf> = None;
    let mut route: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--backends" => {
                spawn_backends = parse_num(&take(args, &mut i, "--backends")?, "--backends")?;
                if spawn_backends == 0 {
                    return Err(CliError::Usage("--backends must be at least 1".into()));
                }
            }
            "--backend" => {
                let spec = take(args, &mut i, "--backend")?;
                let (data, admin) = match spec.split_once(',') {
                    Some((d, a)) => (d.to_string(), Some(a.to_string())),
                    None => (spec, None),
                };
                backend_specs.push(BackendSpec { data, admin });
            }
            "--addr" => config.addr = BindAddr::Tcp(take(args, &mut i, "--addr")?),
            "--unix" => config.addr = BindAddr::Unix(PathBuf::from(take(args, &mut i, "--unix")?)),
            "--addr-file" => addr_file = Some(PathBuf::from(take(args, &mut i, "--addr-file")?)),
            "--admin" => config.admin = Some(BindAddr::Tcp(take(args, &mut i, "--admin")?)),
            "--admin-unix" => {
                config.admin = Some(BindAddr::Unix(PathBuf::from(take(
                    args,
                    &mut i,
                    "--admin-unix",
                )?)));
            }
            "--admin-addr-file" => {
                admin_addr_file = Some(PathBuf::from(take(args, &mut i, "--admin-addr-file")?));
            }
            "--store-dir" => {
                config.store_dir = Some(PathBuf::from(take(args, &mut i, "--store-dir")?));
            }
            "--pid-dir" => pid_dir = Some(PathBuf::from(take(args, &mut i, "--pid-dir")?)),
            "--max-conns" => {
                config.max_conns = parse_num(&take(args, &mut i, "--max-conns")?, "--max-conns")?;
                if config.max_conns == 0 {
                    return Err(CliError::Usage("--max-conns must be at least 1".into()));
                }
            }
            "--route" => route = Some(parse_num(&take(args, &mut i, "--route")?, "--route")?),
            other => return Err(CliError::Usage(format!("unknown shard option {other}"))),
        }
        i += 1;
    }

    // Pure placement helper: no sockets, no children — print the home
    // shard for the given ring size and exit.
    if let Some(session_id) = route {
        if spawn_backends == 0 && backend_specs.is_empty() {
            return Err(CliError::Usage(
                "--route needs --backends n (the ring size to place against)".into(),
            ));
        }
        let n = if spawn_backends > 0 {
            spawn_backends
        } else {
            backend_specs.len()
        };
        return Ok(Ring::new(n).owner(session_id).to_string());
    }

    if spawn_backends > 0 && !backend_specs.is_empty() {
        return Err(CliError::Usage(
            "--backends (spawn mode) and --backend (address mode) are mutually exclusive".into(),
        ));
    }
    if spawn_backends == 0 && backend_specs.is_empty() {
        return Err(CliError::Usage(
            "shard needs --backends n or at least one --backend addr".into(),
        ));
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
        let spawned = spawn_cluster(spawn_backends, &store_dir, &runtime_dir, pid_dir.as_deref())?;
        children = spawned.0;
        config.backends = spawned.1;
    } else {
        config.backends = backend_specs;
    }

    let handle = match Router::bind(config).and_then(Router::start) {
        Ok(handle) => handle,
        Err(e) => {
            reap(&mut children);
            return Err(CliError::Io(e));
        }
    };
    announce_and_wait(
        "incprof-shard",
        &format!(" ({} backend(s))", handle.backends_up().len()),
        &handle,
        addr_file.as_deref(),
        admin_addr_file.as_deref(),
    )?;
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
        let outcome = (|| -> Result<BackendSpec, String> {
            let data = await_addr_file(data_file)?;
            let admin = await_addr_file(admin_file)?;
            Ok(BackendSpec {
                data,
                admin: Some(admin),
            })
        })();
        match outcome {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                let mut children = children;
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
