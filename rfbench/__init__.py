"""Fixed-work benchmark of the repro store; see README.md."""
