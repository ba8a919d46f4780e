#![forbid(unsafe_code)]
//! Integration-test-only crate; see the tests/ directory.
