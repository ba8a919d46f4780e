//! `benchmark`: see `duet_benchmark::cli`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(duet_benchmark::cli::main(&args));
}
