//! `arcc-serve` — the digital-twin service binary.
//!
//! ```text
//! arcc-serve [--state DIR] [--seed N] [--threads N] [--shard-channels N] [--tcp PORT]
//! ```
//!
//! By default the service speaks the line/JSON protocol on
//! stdin/stdout and exits on `quit` or end of input. With `--tcp PORT`
//! it listens on `127.0.0.1:PORT` and serves connections sequentially —
//! one engine, shared across connections, so state (and the memo table)
//! survives reconnects; `quit` ends the connection, not the process.
//! With `--state DIR` the engine is durable: segments and branch
//! checkpoints persist under `DIR` and are revalidated on reopen.

use std::io::{BufReader, Write as _};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

use arcc_obs::{log_line, WallClock};
use arcc_serve::{render_error, ServeError, Service, TwinEngine};

/// One structured line on stderr: `{"level":...,"event":...,...}`.
fn log_error(event: &str, fields: &[(&str, &str)]) {
    eprintln!("{}", log_line(event, fields));
}

struct Options {
    state: Option<PathBuf>,
    seed: u64,
    threads: usize,
    shard_channels: u32,
    tcp: Option<u16>,
}

fn usage() -> String {
    "usage: arcc-serve [--state DIR] [--seed N] [--threads N] [--shard-channels N] [--tcp PORT]"
        .to_string()
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        state: None,
        seed: 42,
        threads: arcc_core::default_threads(),
        shard_channels: arcc_fleet::DEFAULT_SHARD_CHANNELS,
        tcp: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--state" => opts.state = Some(PathBuf::from(value("--state")?)),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| format!("--seed wants a u64\n{}", usage()))?;
            }
            "--threads" => {
                let threads: usize = value("--threads")?
                    .parse()
                    .map_err(|_| format!("--threads wants a positive count\n{}", usage()))?;
                if threads == 0 {
                    return Err(format!("--threads must be positive\n{}", usage()));
                }
                opts.threads = threads;
            }
            "--shard-channels" => {
                let shard: u32 = value("--shard-channels")?
                    .parse()
                    .map_err(|_| format!("--shard-channels wants a u32\n{}", usage()))?;
                if shard == 0 {
                    return Err(format!("--shard-channels must be positive\n{}", usage()));
                }
                opts.shard_channels = shard;
            }
            "--tcp" => {
                opts.tcp = Some(
                    value("--tcp")?
                        .parse()
                        .map_err(|_| format!("--tcp wants a port\n{}", usage()))?,
                );
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn open_engine(opts: &Options) -> Result<TwinEngine, ServeError> {
    match &opts.state {
        Some(dir) => TwinEngine::open(opts.threads, opts.seed, opts.shard_channels, dir),
        None => Ok(TwinEngine::new(opts.threads, opts.seed).shard_channels(opts.shard_channels)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let engine = match open_engine(&opts) {
        Ok(engine) => engine,
        Err(e) => {
            // A refused state directory is still a protocol-shaped
            // answer, so scripted callers can parse it.
            println!("{}", render_error(&e));
            log_error("open-state", &[("error", &e.to_string())]);
            return ExitCode::FAILURE;
        }
    };
    let mut service = Service::with_clock(engine, Box::new(WallClock::new()));

    match opts.tcp {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = service.serve(stdin.lock(), stdout.lock()) {
                log_error(
                    "transport",
                    &[("transport", "stdio"), ("error", &e.to_string())],
                );
                return ExitCode::FAILURE;
            }
        }
        Some(port) => {
            let listener = match TcpListener::bind(("127.0.0.1", port)) {
                Ok(listener) => listener,
                Err(e) => {
                    log_error(
                        "bind",
                        &[
                            ("addr", &format!("127.0.0.1:{port}")),
                            ("error", &e.to_string()),
                        ],
                    );
                    return ExitCode::FAILURE;
                }
            };
            match listener.local_addr() {
                Ok(addr) => println!("arcc-serve listening on {addr}"),
                Err(_) => println!("arcc-serve listening on 127.0.0.1:{port}"),
            }
            let _ = std::io::stdout().flush();
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(stream) => stream,
                    Err(e) => {
                        log_error("accept", &[("error", &e.to_string())]);
                        continue;
                    }
                };
                let reader = match stream.try_clone() {
                    Ok(clone) => BufReader::new(clone),
                    Err(e) => {
                        log_error("clone-stream", &[("error", &e.to_string())]);
                        continue;
                    }
                };
                if let Err(e) = service.serve(reader, stream) {
                    log_error(
                        "connection",
                        &[("transport", "tcp"), ("error", &e.to_string())],
                    );
                }
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn zero_counts_are_refused() {
        for flag in ["--threads", "--shard-channels"] {
            let refused = parse(&[flag, "0"]).err();
            let message = refused.unwrap_or_else(|| panic!("{flag} 0 was accepted"));
            let expected = format!("{flag} must be positive");
            assert!(message.starts_with(&expected), "{message}");
        }
        let opts = parse(&["--threads", "3", "--shard-channels", "64"]).expect("positive counts");
        assert_eq!((opts.threads, opts.shard_channels), (3, 64));
    }
}
