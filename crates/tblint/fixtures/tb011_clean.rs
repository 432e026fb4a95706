// TB011 clean fixture: lengths go through the checked writer, and a
// widening cast or a cast of something other than a length is fine.
fn put_name(out: &mut Vec<u8>, s: &str) -> Result<()> {
    put_len::<u32>(out, s.len(), "name length")?;
    out.extend_from_slice(s.as_bytes());
    put_u64(out, s.len() as u64);
    put_u16(out, self.tag as u16);
    Ok(())
}

#[cfg(test)]
mod tests {
    // Tests build malformed images on purpose.
    fn lying_length(out: &mut Vec<u8>, s: &str) {
        put_u32(out, s.len() as u32 + 1);
    }
}
