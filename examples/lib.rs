#![forbid(unsafe_code)]
//! Shared helpers for the example binaries.
