"""Analytic studies: the Section V-F scalability extrapolation and
table-formatting helpers shared by the benchmark harness."""
