use std::process::ExitCode;

fn main() -> ExitCode {
    s2d_benchmark::main()
}
