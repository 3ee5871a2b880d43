//! The one parser for the harness's `GRADSEC_*` switches: unset is the
//! default, a malformed value names the variable and what it accepts
//! and exits 2 — a typo in a CI leg must not pass having gated nothing.

/// `value` as read by `accept`: `Ok(None)` when unset, an error naming
/// the variable and the `accepted` values when `accept` refuses it.
fn parse<T>(
    name: &str,
    accepted: &str,
    value: Option<&str>,
    accept: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(value) = value else { return Ok(None) };
    accept(value)
        .map(Some)
        .ok_or_else(|| format!("{name} must be unset or {accepted}, got {value:?}"))
}

fn parse_flag(name: &str, value: Option<&str>) -> Result<Option<bool>, String> {
    parse(name, "`0` / `1`", value, |v| match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    })
}

fn parse_u64(name: &str, value: Option<&str>) -> Result<Option<u64>, String> {
    parse(name, "an unsigned integer", value, |v| v.parse().ok())
}

/// Reads `name` through one of the parsers above, exiting 2 on a
/// malformed (or non-unicode) value.
fn read<T>(name: &str, parser: fn(&str, Option<&str>) -> Result<Option<T>, String>) -> Option<T> {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parser(name, value.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// `true` for `name=1`, `false` for `0` or unset.
pub fn flag(name: &str) -> bool {
    read(name, parse_flag).unwrap_or(false)
}

/// `name` as an unsigned integer, `default` when unset.
pub fn u64(name: &str, default: u64) -> u64 {
    read(name, parse_u64).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refused<T: std::fmt::Debug>(got: Result<Option<T>, String>, accepted: &str) {
        let err = got.unwrap_err();
        assert!(err.contains("SOME_VAR") && err.contains(accepted), "{err}");
    }

    #[test]
    fn flag_is_zero_or_one_and_refuses_the_rest_by_name() {
        assert_eq!(parse_flag("SOME_VAR", None), Ok(None));
        assert_eq!(parse_flag("SOME_VAR", Some("1")), Ok(Some(true)));
        assert_eq!(parse_flag("SOME_VAR", Some("0")), Ok(Some(false)));
        for bad in ["true", "", " 1"] {
            refused(parse_flag("SOME_VAR", Some(bad)), "`0` / `1`");
        }
    }

    #[test]
    fn u64_parses_integers_and_refuses_the_rest_by_name() {
        assert_eq!(parse_u64("SOME_VAR", None), Ok(None));
        assert_eq!(parse_u64("SOME_VAR", Some("42")), Ok(Some(42)));
        for bad in ["abc", "-1", "4.5"] {
            refused(parse_u64("SOME_VAR", Some(bad)), "unsigned integer");
        }
    }
}
