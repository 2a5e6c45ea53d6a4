"""Query specs, physical plan nodes, and join-order optimization."""
