"""smartbizsim: a deterministic smart-business simulator with a
five-step security pipeline and cost-of-security metering."""
