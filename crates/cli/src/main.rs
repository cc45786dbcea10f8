#![forbid(unsafe_code)]

//! The `pnut` binary: thin wrapper over [`pnut_cli::run`].

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Test hook: arm the pager's spill-read fault injection before the
    // command runs, so integration tests can drive a reload failure
    // end to end through the real binary (see tests/cli_spill_errors.rs).
    if let Ok(n) = std::env::var("PNUT_TEST_FAIL_SPILL_READ") {
        if let Ok(n) = n.parse::<u64>() {
            pnut_reach::pager::fail::fail_nth_spill_read(n);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    match pnut_cli::run(&argv, &mut out) {
        Ok(code) => {
            // `print!` would panic on a closed or full stdout.
            let mut stdout = std::io::stdout().lock();
            if let Err(e) = stdout
                .write_all(out.as_bytes())
                .and_then(|()| stdout.flush())
            {
                eprintln!("pnut: error: cannot write stdout: {e}");
                return ExitCode::from(1);
            }
            ExitCode::from(u8::try_from(code).unwrap_or(1))
        }
        // No partial report: a failed command contributes nothing to
        // stdout, so downstream parsers never see a truncated table.
        Err(e) => {
            eprintln!("pnut: error: {e}");
            ExitCode::from(1)
        }
    }
}
