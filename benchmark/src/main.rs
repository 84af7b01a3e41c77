//! `cmpi-benchmark`: started by `run.sh`, which builds it first.

#[global_allocator]
static ALLOC: cmpi_benchmark::alloc::Counting = cmpi_benchmark::alloc::Counting;

fn main() {
    cmpi_benchmark::cli::main()
}
