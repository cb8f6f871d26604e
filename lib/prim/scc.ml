type t = {
  comp_of : int array;
  n_comps : int;
  members : int list array;
}

let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* Iterative Tarjan: explicit int-array stacks so that the deep call chains
   of large generated programs cannot overflow the OCaml stack. Each frame
   is a node plus its not-yet-visited successors. *)
let compute ~n ~succs =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame_node = Array.make n 0 and frame_rest = Array.make n [] in
  let fp = ref 0 in
  let comp_of = Array.make n (-1) in
  let n_comps = ref 0 in
  let counter = ref 0 in
  let members_rev = ref [] in
  let enter v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame_node.(!fp) <- v;
    frame_rest.(!fp) <- succs v;
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      enter root;
      while !fp > 0 do
        let f = !fp - 1 in
        let v = frame_node.(f) in
        match frame_rest.(f) with
        | w :: ws ->
            frame_rest.(f) <- ws;
            if index.(w) < 0 then enter w
            else if on_stack.(w) then lowlink.(v) <- imin lowlink.(v) index.(w)
        | [] ->
            fp := f;
            if f > 0 then begin
              let parent = frame_node.(f - 1) in
              lowlink.(parent) <- imin lowlink.(parent) lowlink.(v)
            end;
            if lowlink.(v) = index.(v) then begin
              let c = !n_comps in
              incr n_comps;
              let mem = ref [] in
              let continue = ref true in
              while !continue do
                decr sp;
                let w = stack.(!sp) in
                on_stack.(w) <- false;
                comp_of.(w) <- c;
                mem := w :: !mem;
                if w = v then continue := false
              done;
              members_rev := !mem :: !members_rev
            end
      done
    end
  done;
  let members = Array.of_list (List.rev !members_rev) in
  { comp_of; n_comps = !n_comps; members }

let condensation t ~succs =
  let dag = Array.make t.n_comps [] in
  (* [stamp.(c')] = the last component that recorded an edge to [c']: one
     component's members are scanned together, so it dedupes per source. *)
  let stamp = Array.make t.n_comps (-1) in
  Array.iteri
    (fun c mem ->
      List.iter
        (fun v ->
          List.iter
            (fun w ->
              let c' = t.comp_of.(w) in
              if c' <> c && stamp.(c') <> c then begin
                stamp.(c') <- c;
                dag.(c) <- c' :: dag.(c)
              end)
            (succs v))
        mem)
    t.members;
  dag

let longest_path_through ~dag ~weight =
  let n = Array.length dag in
  (* Tarjan numbers components in reverse topological order: every edge goes
     from a higher id to a lower id. [down.(c)] = heaviest path starting at c
     (including c); computed in id order since successors have smaller ids.
     [up.(c)] = heaviest path ending at c (including c); computed in reverse
     id order by relaxing over incoming edges. *)
  let down = Array.make n 0 in
  for c = 0 to n - 1 do
    let best = List.fold_left (fun acc c' -> imax acc down.(c')) 0 dag.(c) in
    down.(c) <- best + weight c
  done;
  let up = Array.make n 0 in
  for c = n - 1 downto 0 do
    (* Predecessors have higher ids, so up.(c) already holds the heaviest
       incoming path when c is reached. *)
    up.(c) <- up.(c) + weight c;
    List.iter (fun c' -> up.(c') <- imax up.(c') up.(c)) dag.(c)
  done;
  Array.init n (fun c -> down.(c) + up.(c) - weight c)

let is_trivial t c =
  match t.members.(c) with
  | [ _ ] -> true
  | _ -> false

let has_self_loop t ~succs c =
  match t.members.(c) with
  | [ v ] -> List.exists (fun w -> w = v) (succs v)
  | _ ->
      (* Two or more mutually reachable members: the component contains a
         cycle whether or not any single edge loops. *)
      true
