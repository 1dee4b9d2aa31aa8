//! The daemon family: serve / submit / stats / metrics / shutdown
//! (one-line summaries: `cli.rs`).

use crate::cli::Args;
use std::path::PathBuf;
use std::process::ExitCode;
use tw_bench::daemon::client::Client;

/// The `--socket PATH` every daemon command's row marks required.
fn socket(args: &Args) -> PathBuf {
    let path = args.value("--socket");
    path.expect("the parser enforces required flags").into()
}

/// `serve`: `--cache DIR` defaults to `.exp-cache` (the CLI convention);
/// `--no-cache` runs memory-only.
pub fn serve(args: &Args) -> Result<ExitCode, String> {
    let mut config = tw_bench::daemon::Config::new(socket(args));
    config.cache_dir =
        (!args.has("--no-cache")).then(|| args.value("--cache").unwrap_or(".exp-cache").into());
    config.workers = args.number("--workers", config.workers)?;
    config.queue_cap = args.number("--queue", config.queue_cap)?;
    config.record = args.value("--record").map(Into::into);
    eprintln!(
        "serving experiments on {} ({} workers, queue of {}, cache {})",
        config.socket.display(),
        config.workers.max(1),
        config.queue_cap,
        config
            .cache_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".to_string()),
    );
    tw_bench::daemon::serve(&config)?;
    if let Some(path) = &config.record {
        eprintln!("wrote {}", path.display());
    }
    eprintln!("daemon shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

/// The `--json` document is byte-identical to `plan run --json` of the spec.
pub fn submit(args: &Args) -> Result<ExitCode, String> {
    let path = &args.operands()[0];
    let spec_text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut client = Client::connect(&socket(args))?;
    let reply = client.submit(&spec_text)?;
    println!(
        "plan `{}`: cells={} hits={} misses={} coalesced={} queue_us={} exec_us={}",
        reply.plan,
        reply.cells,
        reply.hits,
        reply.misses,
        reply.coalesced,
        reply.queue_us,
        reply.exec_us,
    );
    if let Some(out) = args.value("--json") {
        crate::write_file(out, &reply.figures)?;
    }
    Ok(ExitCode::SUCCESS)
}

pub fn stats(args: &Args) -> Result<ExitCode, String> {
    print!("{}", Client::connect(&socket(args))?.stats()?.pretty());
    Ok(ExitCode::SUCCESS)
}

pub fn metrics(args: &Args) -> Result<ExitCode, String> {
    print!("{}", Client::connect(&socket(args))?.metrics()?);
    Ok(ExitCode::SUCCESS)
}

pub fn shutdown(args: &Args) -> Result<ExitCode, String> {
    let socket = socket(args);
    Client::connect(&socket)?.shutdown()?;
    println!("daemon at {} is shutting down", socket.display());
    Ok(ExitCode::SUCCESS)
}
