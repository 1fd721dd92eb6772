"""In-process benchmark of the qmn library: input generator, tracer, gates, workloads."""
