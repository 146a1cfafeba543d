"""End-to-end and per-layer benchmark of the SENS-Join reproduction."""
