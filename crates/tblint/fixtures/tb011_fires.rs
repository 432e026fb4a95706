// TB011 firing fixture: lengths narrowed by a cast. Past the field's
// width each one writes a wrong count under a valid checksum.
fn put_name(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_key(out: &mut Vec<u8>, key: &[usize]) {
    put_u16(out, key.len() as u16);
    out.push(self.tags.len() as u8);
}
