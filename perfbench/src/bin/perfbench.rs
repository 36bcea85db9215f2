//! Untraced and traced runs with the system allocator. The traced runs
//! that report `process.allocs_per_op` use `perfbench-traced`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(fractalcloud_perfbench::run::main(&args));
}
