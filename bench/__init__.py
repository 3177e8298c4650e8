"""rigidlab benchmark: workloads, outside-in tracer and the command-line entry point."""
