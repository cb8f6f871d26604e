(* Independent answer references.

   - Context-insensitive answers must equal sequential Andersen.
   - Context-sensitive answers must be a subset of Andersen's set and
     equal the no-sharing sequential (Mode.Seq) answer wherever both
     complete.
   - A found explain chain must walk existing PAG edges from the queried
     variable to the object. *)

module P = Parcfl
module J = P.Json

type ref_ = {
  pag : P.Pag.t;
  andersen : P.Andersen.t;
  seq : (P.Pag.var, P.Query.result) Hashtbl.t option;
      (** sequential CS answers; [None] for a CI reference *)
  names : (P.Pag.var, string list) Hashtbl.t;  (** memoised Andersen names *)
}

let obj_names pag objs = List.sort_uniq compare (List.map (P.Pag.obj_name pag) objs)

let solver_config ~cs =
  let c = P.Config.with_budget P.Profile.default_budget P.Config.default in
  { c with P.Config.context_sensitive = cs }

(* [cs] adds the sequential no-sharing run over [queries]. *)
let make ?(cs = false) (b : P.Suite.t) =
  let pag = b.P.Suite.pag in
  let seq =
    if not cs then None
    else
      let r =
        P.Runner.run ~mode:P.Mode.Seq ~threads:1 ~type_level:b.P.Suite.type_level
          ~solver_config:(solver_config ~cs:true) ~queries:b.P.Suite.queries pag
      in
      Some (P.Report.results_by_var r)
  in
  { pag; andersen = P.Andersen.solve pag; seq; names = Hashtbl.create 4096 }

let andersen_names r v =
  match Hashtbl.find_opt r.names v with
  | Some l -> l
  | None ->
      let l = obj_names r.pag (P.Andersen.points_to_list r.andersen v) in
      Hashtbl.replace r.names v l;
      l

let rec subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> if x = y then subset a' b' else if x > y then subset a b' else false

(* Is [names] (sorted, unique) a correct answer for [v]? *)
let answer_ok r v names =
  let full = andersen_names r v in
  match r.seq with
  | None -> names = full
  | Some seq -> (
      subset names full
      &&
      match Hashtbl.find_opt seq v with
      | Some (P.Query.Points_to _ as res) -> names = obj_names r.pag (P.Query.objects res)
      | Some P.Query.Out_of_budget | None -> true)

(* Does a found chain walk real edges from [var] to [obj]? Each element's
   [edge] id must resolve (Pag.edge_of_id) to an edge of the named kind
   whose endpoints carry the named variables, and consecutive elements
   must connect. *)
let chain_ok pag ~var ~obj chain =
  let vn = P.Pag.var_name pag in
  let str k e = match J.member k e with Some (J.String s) -> Some s | _ -> None in
  let rec walk cur = function
    | [] -> false
    | e :: rest -> (
        let edge =
          match J.member "edge" e with
          | Some (J.Int id) when id >= 0 && id < P.Pag.n_edges pag -> Some (P.Pag.edge_of_id pag id)
          | _ -> None
        in
        match (str "kind" e, edge) with
        | Some "new", Some (P.Pag.New { dst; obj = o }) ->
            rest = [] && vn dst = cur && P.Pag.obj_name pag o = obj
            && str "obj" e = Some obj
        | Some "assign", Some (P.Pag.Assign { dst; src })
        | Some "assign_g", Some (P.Pag.Assign_global { dst; src })
        | Some "param", Some (P.Pag.Param { dst; src; _ })
        | Some "ret", Some (P.Pag.Ret { dst; src; _ }) ->
            vn dst = cur && str "src" e = Some (vn src) && walk (vn src) rest
        | Some "load", Some (P.Pag.Load { dst; base; _ }) ->
            vn dst = cur && str "base" e = Some (vn base) && walk cur rest
        | Some "store", Some (P.Pag.Store { base; src; _ }) ->
            str "base" e = Some (vn base) && walk (vn src) rest
        | _ -> false)
  in
  match chain with J.List l -> walk var l | _ -> false
