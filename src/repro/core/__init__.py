"""Core GRainDB machinery: catalog/storage, RID indices, bitmasks, rewrite rules."""
