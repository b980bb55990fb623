"""End-to-end and per-layer benchmark of the coloring/MIS pipeline (see README.md)."""
