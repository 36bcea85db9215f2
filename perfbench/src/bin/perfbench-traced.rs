//! The traced run's binary: identical to `perfbench`, plus the counting
//! allocator behind `process.allocs_per_op`. Untraced runs never load it,
//! so their timings carry no allocator instrumentation.

#[global_allocator]
static ALLOC: fractalcloud_pointcloud::count_alloc::CountingAllocator =
    fractalcloud_pointcloud::count_alloc::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(fractalcloud_perfbench::run::main(&args));
}
