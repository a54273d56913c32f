type proof = { relation : string; statement : string; witness_ok : bool }

let prove ~relation ~statement ~witness_ok = { relation; statement; witness_ok }
let forge ~relation ~statement = { relation; statement; witness_ok = false }

let verify ~relation ~statement proof =
  proof.witness_ok && String.equal proof.relation relation
  && String.equal proof.statement statement

let size_bits = 256
