//! The one golden-file check of the counter goldens.

/// Compares `table` with the committed file at `path` line by line,
/// naming the file and the line that differs, then their line counts.
/// With `BITEMPO_WRITE_GOLDEN` set it writes `table` to `path` instead.
pub fn assert_golden(path: &str, table: &str) {
    if std::env::var_os("BITEMPO_WRITE_GOLDEN").is_some() {
        std::fs::write(path, table).unwrap();
        return;
    }
    let name = std::path::Path::new(path)
        .file_name()
        .unwrap()
        .to_string_lossy();
    let golden = std::fs::read_to_string(path).unwrap();
    for (i, (want, got)) in golden.lines().zip(table.lines()).enumerate() {
        assert_eq!(want, got, "{name} line {}", i + 1);
    }
    assert_eq!(golden.lines().count(), table.lines().count());
}
