"""Figure-regeneration benchmark for the reproduction (see README.md)."""
