(* Linear probing over a power-of-two slot array. A slot [i] is live when
   [gens.(i) = gen]; bumping [gen] empties every slot at once, which is what
   makes per-query reuse of these tables free. Load factor is capped at 1/2
   so probe chains stay short even on adversarial key sets. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable gens : int array;
  mutable mask : int; (* Array.length keys - 1 *)
  mutable len : int;
  mutable gen : int;
}

(* Packed keys concentrate their entropy in the high bits (the low 39 bits
   are a context id, almost always 0), so the key must be mixed before
   masking or everything lands in slot 0. A multiply only carries entropy
   upwards — [var lsl 39] times any odd constant still has 39 zero low
   bits — so the xor-shift must fold bits from 39 up back onto the slot
   bits. Fibonacci multiply + xor-shift. *)
let[@inline] hash k =
  let h = k * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 39)

(* The floor of 8 keeps a fresh table at three one-line arrays: the solver
   pools thousands of small tables (memo accumulators), so their empty
   footprint matters more than early growth. *)
let round_pow2 n =
  let c = ref 8 in
  while !c < n do
    c := !c * 2
  done;
  !c

let create ?(capacity = 0) () =
  let cap = round_pow2 (capacity * 2) in
  {
    keys = Array.make cap 0;
    vals = Array.make cap (Obj.magic 0);
    (* Same dummy-element trick as [Vec]: dead slots are never read. *)
    gens = Array.make cap 0;
    mask = cap - 1;
    len = 0;
    gen = 1;
  }

let length t = t.len

(* Returns the slot holding [k], or the first dead slot of its probe chain.
   There is no deletion, so a dead slot always terminates the chain. *)
let[@inline] probe t k =
  let mask = t.mask in
  let i = ref (hash k land mask) in
  while t.gens.(!i) = t.gen && t.keys.(!i) <> k do
    i := (!i + 1) land mask
  done;
  !i

let find t k =
  let i = probe t k in
  if t.gens.(i) = t.gen then Some t.vals.(i) else None

let get t k ~default =
  let i = probe t k in
  if t.gens.(i) = t.gen then t.vals.(i) else default

let mem t k =
  let i = probe t k in
  t.gens.(i) = t.gen

let grow t =
  let okeys = t.keys and ovals = t.vals and ogens = t.gens and ogen = t.gen in
  let cap = 2 * Array.length okeys in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap (Obj.magic 0);
  t.gens <- Array.make cap 0;
  t.mask <- cap - 1;
  t.gen <- 1;
  for i = 0 to Array.length okeys - 1 do
    if ogens.(i) = ogen then begin
      let j = probe t okeys.(i) in
      t.keys.(j) <- okeys.(i);
      t.vals.(j) <- ovals.(i);
      t.gens.(j) <- 1
    end
  done

let[@inline] insert_at t i k v =
  t.keys.(i) <- k;
  t.vals.(i) <- v;
  t.gens.(i) <- t.gen;
  t.len <- t.len + 1

let set t k v =
  if k < 0 then invalid_arg "Int_table: negative key";
  let i = probe t k in
  if t.gens.(i) = t.gen then t.vals.(i) <- v
  else if 2 * (t.len + 1) > t.mask + 1 then begin
    grow t;
    insert_at t (probe t k) k v
  end
  else insert_at t i k v

let find_or_add t k f =
  if k < 0 then invalid_arg "Int_table: negative key";
  let i = probe t k in
  if t.gens.(i) = t.gen then t.vals.(i)
  else begin
    let v = f k in
    (* [f] must not touch [t], so [i] is still the right dead slot. *)
    if 2 * (t.len + 1) > t.mask + 1 then begin
      grow t;
      insert_at t (probe t k) k v
    end
    else insert_at t i k v;
    v
  end

let iter f t =
  for i = 0 to t.mask do
    if t.gens.(i) = t.gen then f t.keys.(i) t.vals.(i)
  done

let clear t =
  t.len <- 0;
  if t.gen = max_int then begin
    Array.fill t.gens 0 (t.mask + 1) 0;
    t.gen <- 1
  end
  else t.gen <- t.gen + 1

module Set = struct
  type nonrec t = {
    mutable keys : int array;
    mutable gens : int array;
    mutable mask : int;
    mutable len : int;
    mutable gen : int;
  }

  let create ?(capacity = 0) () =
    let cap = round_pow2 (capacity * 2) in
    {
      keys = Array.make cap 0;
      gens = Array.make cap 0;
      mask = cap - 1;
      len = 0;
      gen = 1;
    }

  let length t = t.len

  let[@inline] probe t k =
    let mask = t.mask in
    let i = ref (hash k land mask) in
    while t.gens.(!i) = t.gen && t.keys.(!i) <> k do
      i := (!i + 1) land mask
    done;
    !i

  let mem t k =
    let i = probe t k in
    t.gens.(i) = t.gen

  let grow t =
    let okeys = t.keys and ogens = t.gens and ogen = t.gen in
    let cap = 2 * Array.length okeys in
    t.keys <- Array.make cap 0;
    t.gens <- Array.make cap 0;
    t.mask <- cap - 1;
    t.gen <- 1;
    for i = 0 to Array.length okeys - 1 do
      if ogens.(i) = ogen then begin
        let j = probe t okeys.(i) in
        t.keys.(j) <- okeys.(i);
        t.gens.(j) <- 1
      end
    done

  let add t k =
    if k < 0 then invalid_arg "Int_table.Set: negative element";
    let i = probe t k in
    if t.gens.(i) = t.gen then false
    else begin
      let i =
        if 2 * (t.len + 1) > t.mask + 1 then begin
          grow t;
          probe t k
        end
        else i
      in
      t.keys.(i) <- k;
      t.gens.(i) <- t.gen;
      t.len <- t.len + 1;
      true
    end

  let clear t =
    t.len <- 0;
    if t.gen = max_int then begin
      Array.fill t.gens 0 (t.mask + 1) 0;
      t.gen <- 1
    end
    else t.gen <- t.gen + 1
end
