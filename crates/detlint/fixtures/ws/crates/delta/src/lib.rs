//! Seeded-violation fixture for U001 (unused pub): which public items
//! count as named from outside this library.
#![forbid(unsafe_code)]

/// Named only by this library's own unit test: U001 fires.
pub fn only_unit_tested() -> u32 {
    1
}

/// Named only inside this library: U001 fires.
pub const LIMIT: u32 = 4;

/// Named only by the fixture's integration test.
pub fn from_integration_test() -> u32 {
    LIMIT
}

/// Named only by the fixture's example.
pub fn from_example() -> u32 {
    3
}

// detlint-allow(U001): stale, a bench names this now
/// Named only by this crate's bench.
pub fn from_bench() -> u32 {
    4
}

/// Named only by gamma's `probe` binary.
pub const fn from_other_bin() -> u32 {
    5
}

/// Passed as a value by beta, never called by name.
pub fn as_value(x: u32) -> u32 {
    x + 1
}

/// Named only in beta's comments and strings: U001 fires.
pub fn mentioned_in_prose() -> u32 {
    6
}

// detlint-allow(U001): kept for callers outside this workspace
pub fn waived_with_reason() -> u32 {
    7
}

// detlint-allow(U001)
pub fn waived_without_reason() -> u32 {
    8
}

// detlint-allow(U001): a blank line below ends this waiver's reach

pub fn past_a_blank_line() -> u32 {
    9
}

/// Crate-visible items are out of U001's scope.
pub(crate) fn crate_only() -> u32 {
    only_unit_tested() + mentioned_in_prose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_tests_are_inside_the_library() {
        assert_eq!(only_unit_tested() + crate_only(), 8);
    }
}
